#include "service/job_spec.hh"

#include <utility>

#include "assembler/assembler.hh"
#include "common/log.hh"
#include "faults/fault_plan.hh"
#include "fuzz/program_gen.hh"
#include "kernels/runner.hh"

namespace mtfpu::service
{

namespace
{

const char *
hazardPolicyName(machine::HazardPolicy policy)
{
    switch (policy) {
      case machine::HazardPolicy::Fatal: return "fatal";
      case machine::HazardPolicy::Stall: return "stall";
      case machine::HazardPolicy::Ignore: return "ignore";
    }
    return "fatal";
}

machine::HazardPolicy
hazardPolicyFromName(const std::string &name)
{
    if (name == "fatal")
        return machine::HazardPolicy::Fatal;
    if (name == "stall")
        return machine::HazardPolicy::Stall;
    if (name == "ignore")
        return machine::HazardPolicy::Ignore;
    fatal(ErrCode::BadOperand, "unknown hazard policy '" + name + "'");
}

softfp::Backend
backendFromName(const std::string &name)
{
    if (name == "soft")
        return softfp::Backend::Soft;
    if (name == "host-fast")
        return softfp::Backend::HostFast;
    fatal(ErrCode::BadOperand, "unknown softfp backend '" + name + "'");
}

void
writeCacheConfig(json::Writer &w, const memory::CacheConfig &c)
{
    w.beginObject();
    w.key("size_bytes").value(static_cast<uint64_t>(c.sizeBytes));
    w.key("line_bytes").value(static_cast<uint64_t>(c.lineBytes));
    w.key("miss_penalty").value(static_cast<uint64_t>(c.missPenalty));
    w.key("write_allocate").value(c.writeAllocate);
    w.endObject();
}

memory::CacheConfig
cacheConfigFromJson(const json::Value &v, memory::CacheConfig dflt)
{
    if (v.has("size_bytes"))
        dflt.sizeBytes = v.at("size_bytes").asUint();
    if (v.has("line_bytes"))
        dflt.lineBytes = v.at("line_bytes").asUint();
    if (v.has("miss_penalty"))
        dflt.missPenalty =
            static_cast<unsigned>(v.at("miss_penalty").asUint());
    if (v.has("write_allocate"))
        dflt.writeAllocate = v.at("write_allocate").asBool();
    return dflt;
}

/** Decode a [[a, b], ...] pair array; throws BadOperand on shape or
 *  on a key that does not fit First. */
template <typename First>
std::vector<std::pair<First, uint64_t>>
pairsFromJson(const json::Value &v, const char *what)
{
    std::vector<std::pair<First, uint64_t>> out;
    for (const json::Value &entry : v.asArray()) {
        const std::vector<json::Value> &pair = entry.asArray();
        if (pair.size() != 2) {
            fatal(ErrCode::BadOperand,
                  std::string("job spec: ") + what +
                      " entries must be [key, value] pairs");
        }
        const uint64_t key = pair[0].asUint();
        if (!std::in_range<First>(key)) {
            fatal(ErrCode::BadOperand, std::string("job spec: ") + what +
                                           " key " + std::to_string(key) +
                                           " is out of range");
        }
        out.emplace_back(static_cast<First>(key), pair[1].asUint());
    }
    return out;
}

template <typename First>
void
writePairs(json::Writer &w,
           const std::vector<std::pair<First, uint64_t>> &pairs)
{
    w.beginArray();
    for (const auto &[key, value] : pairs) {
        w.beginArray();
        w.value(static_cast<uint64_t>(key));
        w.value(value);
        w.endArray();
    }
    w.endArray();
}

} // anonymous namespace

const char *
jobKindName(JobKind kind)
{
    switch (kind) {
      case JobKind::Assembly: return "assembly";
      case JobKind::Code: return "code";
      case JobKind::Kernel: return "kernel";
      case JobKind::Fuzz: return "fuzz";
    }
    return "assembly";
}

JobKind
jobKindFromName(const std::string &name)
{
    if (name == "assembly")
        return JobKind::Assembly;
    if (name == "code")
        return JobKind::Code;
    if (name == "kernel")
        return JobKind::Kernel;
    if (name == "fuzz")
        return JobKind::Fuzz;
    fatal(ErrCode::BadOperand, "unknown job kind '" + name + "'");
}

std::string
configToJson(const machine::MachineConfig &c)
{
    json::Writer w;
    w.beginObject();
    w.key("fpu_latency").value(static_cast<uint64_t>(c.fpuLatency));
    w.key("cycle_ns").value(c.cycleNs);
    w.key("store_cycles").value(static_cast<uint64_t>(c.storeCycles));
    w.key("overlap_with_vector").value(c.overlapWithVector);
    w.key("hazard_policy").value(hazardPolicyName(c.hazardPolicy));
    w.key("fp_backend").value(softfp::backendName(c.fpBackend));
    w.key("max_cycles").value(c.maxCycles);
    w.key("watchdog_ms").value(c.watchdogMs);
    w.key("memory").beginObject();
    w.key("data_cache");
    writeCacheConfig(w, c.memory.dataCache);
    w.key("instr_buffer");
    writeCacheConfig(w, c.memory.instrBuffer);
    w.key("instr_cache");
    writeCacheConfig(w, c.memory.instrCache);
    w.key("mem_bytes").value(static_cast<uint64_t>(c.memory.memBytes));
    w.key("model_caches").value(c.memory.modelCaches);
    w.endObject();
    w.endObject();
    return w.str();
}

machine::MachineConfig
configFromJson(const json::Value &v)
{
    machine::MachineConfig c;
    if (v.has("fpu_latency"))
        c.fpuLatency = static_cast<unsigned>(v.at("fpu_latency").asUint());
    if (v.has("cycle_ns"))
        c.cycleNs = v.at("cycle_ns").asNumber();
    if (v.has("store_cycles"))
        c.storeCycles =
            static_cast<unsigned>(v.at("store_cycles").asUint());
    if (v.has("overlap_with_vector"))
        c.overlapWithVector = v.at("overlap_with_vector").asBool();
    if (v.has("hazard_policy"))
        c.hazardPolicy =
            hazardPolicyFromName(v.at("hazard_policy").asString());
    if (v.has("fp_backend"))
        c.fpBackend = backendFromName(v.at("fp_backend").asString());
    if (v.has("max_cycles"))
        c.maxCycles = v.at("max_cycles").asUint();
    if (v.has("watchdog_ms"))
        c.watchdogMs = v.at("watchdog_ms").asUint();
    if (v.has("memory")) {
        const json::Value &m = v.at("memory");
        if (m.has("data_cache"))
            c.memory.dataCache =
                cacheConfigFromJson(m.at("data_cache"), c.memory.dataCache);
        if (m.has("instr_buffer"))
            c.memory.instrBuffer = cacheConfigFromJson(
                m.at("instr_buffer"), c.memory.instrBuffer);
        if (m.has("instr_cache"))
            c.memory.instrCache = cacheConfigFromJson(
                m.at("instr_cache"), c.memory.instrCache);
        if (m.has("mem_bytes")) {
            const uint64_t bytes = m.at("mem_bytes").asUint();
            if (bytes > kMaxMemBytes)
                fatal(ErrCode::BadOperand,
                      "mem_bytes " + std::to_string(bytes) +
                          " exceeds the maximum of " +
                          std::to_string(kMaxMemBytes));
            c.memory.memBytes = bytes;
        }
        if (m.has("model_caches"))
            c.memory.modelCaches = m.at("model_caches").asBool();
    }
    return c;
}

std::string
JobSpec::to_json() const
{
    json::Writer w;
    w.beginObject();
    w.key("name").value(name);
    w.key("kind").value(jobKindName(kind));
    switch (kind) {
      case JobKind::Assembly:
        w.key("assembly").value(assembly);
        break;
      case JobKind::Code: {
        w.key("code").beginArray();
        for (uint32_t word : code)
            w.value(static_cast<uint64_t>(word));
        w.endArray();
        break;
      }
      case JobKind::Kernel:
        w.key("kernel").value(kernel);
        break;
      case JobKind::Fuzz:
        w.key("fuzz_seed").value(fuzzSeed);
        break;
    }
    w.key("config").raw(configToJson(config));
    w.key("mem_init");
    writePairs(w, memInit);
    w.key("cpu_reg_init");
    writePairs(w, cpuRegInit);
    w.key("fpu_reg_init");
    writePairs(w, fpuRegInit);
    w.key("fault_plan").value(faultPlan);
    w.key("lockstep").value(lockstep);
    w.endObject();
    return w.str();
}

JobSpec
JobSpec::from_json(const json::Value &v)
{
    JobSpec spec;
    if (!v.isObject())
        fatal(ErrCode::BadOperand, "job spec: expected a JSON object");
    if (v.has("name"))
        spec.name = v.at("name").asString();
    if (v.has("kind"))
        spec.kind = jobKindFromName(v.at("kind").asString());
    switch (spec.kind) {
      case JobKind::Assembly:
        if (!v.has("assembly"))
            fatal(ErrCode::BadOperand,
                  "job spec: assembly kind needs an 'assembly' field");
        spec.assembly = v.at("assembly").asString();
        break;
      case JobKind::Code: {
        if (!v.has("code"))
            fatal(ErrCode::BadOperand,
                  "job spec: code kind needs a 'code' field");
        for (const json::Value &word : v.at("code").asArray())
            spec.code.push_back(static_cast<uint32_t>(word.asUint()));
        break;
      }
      case JobKind::Kernel:
        if (!v.has("kernel"))
            fatal(ErrCode::BadOperand,
                  "job spec: kernel kind needs a 'kernel' field");
        spec.kernel = v.at("kernel").asString();
        break;
      case JobKind::Fuzz:
        if (!v.has("fuzz_seed"))
            fatal(ErrCode::BadOperand,
                  "job spec: fuzz kind needs a 'fuzz_seed' field");
        spec.fuzzSeed = v.at("fuzz_seed").asUint();
        break;
    }
    if (v.has("config"))
        spec.config = configFromJson(v.at("config"));
    if (v.has("mem_init"))
        spec.memInit = pairsFromJson<uint64_t>(v.at("mem_init"), "mem_init");
    if (v.has("cpu_reg_init"))
        spec.cpuRegInit =
            pairsFromJson<unsigned>(v.at("cpu_reg_init"), "cpu_reg_init");
    if (v.has("fpu_reg_init"))
        spec.fpuRegInit =
            pairsFromJson<unsigned>(v.at("fpu_reg_init"), "fpu_reg_init");
    if (v.has("fault_plan"))
        spec.faultPlan = v.at("fault_plan").asString();
    if (v.has("lockstep"))
        spec.lockstep = v.at("lockstep").asBool();
    return spec;
}

JobSpec
JobSpec::parse(const std::string &text)
{
    return from_json(json::parse(text));
}

machine::SimJob
JobSpec::resolve() const
{
    machine::SimJob job;
    job.name = name;
    job.config = config;
    switch (kind) {
      case JobKind::Assembly:
        job.program = assembler::assemble(assembly);
        break;
      case JobKind::Code:
        job.program.code.reserve(code.size());
        for (uint32_t word : code)
            job.program.code.push_back(isa::Instr::decode(word));
        break;
      case JobKind::Kernel: {
        const kernels::Kernel k = kernels::findKernel(kernel);
        machine::SimJob pure = kernels::pureKernelJob(k, config);
        job.program = std::move(pure.program);
        job.memInit = std::move(pure.memInit);
        if (job.name.empty())
            job.name = pure.name;
        break;
      }
      case JobKind::Fuzz: {
        const fuzz::FuzzProgram prog =
            fuzz::ProgramGen{}.generate(fuzzSeed);
        job.program.code = prog.code;
        job.memInit = prog.memInit;
        if (job.name.empty())
            job.name = "fuzz-" + std::to_string(fuzzSeed);
        break;
      }
    }
    // Spec-level images are appended after any kernel-derived image:
    // later writes win, so a spec can patch a kernel's defaults.
    job.memInit.insert(job.memInit.end(), memInit.begin(), memInit.end());
    job.cpuRegInit = cpuRegInit;
    job.fpuRegInit = fpuRegInit;
    if (job.name.empty())
        job.name = "job";
    if (!faultPlan.empty())
        job.faultPlan = faults::FaultPlan::parse(faultPlan);
    job.lockstep = lockstep;
    return job;
}

} // namespace mtfpu::service
