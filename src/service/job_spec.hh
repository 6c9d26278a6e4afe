/**
 * @file
 * Serializable job descriptions (DESIGN.md §11). A JobSpec is the
 * declarative, JSON-round-trippable form of a SimJob: everything a
 * simulation needs, expressed as data — a program reference (inline
 * assembly, raw encoded words, a kernel-registry name, or a fuzz-shard
 * seed), the full MachineConfig (run guards included), declarative
 * memory/register images, and an optional fault-plan text. Because a
 * spec contains no closures, it can cross a process boundary: the
 * simulation service accepts specs over its socket, and two clients
 * submitting the same spec share one simulation through the
 * content-hash result cache.
 *
 * Purity rules: a spec without a fault plan or the lockstep shadow
 * resolves to a *pure* SimJob (result-cacheable). The plan
 * and the flag resolve into SimJob::faultPlan and SimJob::lockstep —
 * reproducible (both are part of the spec) but excluded from result
 * reuse, like the closures of in-process batches. What a spec cannot
 * express is what those closures are for: custom measurement bodies,
 * observer attachment and register readback; nor can it start from a
 * snapshot.
 *
 * A spec is also the one replay artifact: the daemon's crash report
 * and the fuzzer's crash bundle both carry the failed job's spec,
 * which bench/replay resolves and re-runs. The fuzzer's corpus
 * entries are bare specs.
 */

#ifndef MTFPU_SERVICE_JOB_SPEC_HH
#define MTFPU_SERVICE_JOB_SPEC_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/text.hh"
#include "machine/sim_job.hh"

namespace mtfpu::service
{

/** How a spec names its program. */
enum class JobKind : uint8_t
{
    Assembly, // inline assembler source text
    Code,     // raw encoded instruction words
    Kernel,   // kernels::findKernel() reference, e.g. "lfk01:vector"
    Fuzz,     // fuzz::ProgramGen shard: the program for fuzzSeed
};

/** Stable kind names, "assembly" / "code" / ... (common/text.hh). */
constexpr auto
enumNames(JobKind)
{
    return nameTable<JobKind>({
        {JobKind::Assembly, "assembly"}, {JobKind::Code, "code"},
        {JobKind::Kernel, "kernel"}, {JobKind::Fuzz, "fuzz"},
    });
}

/** One declarative job. */
struct JobSpec
{
    /** Identifier carried through to the result. */
    std::string name;

    JobKind kind = JobKind::Assembly;

    /** Assembler source (kind == Assembly). */
    std::string assembly;

    /** Raw encoded instruction words (kind == Code). */
    std::vector<uint32_t> code;

    /** Kernel-registry reference (kind == Kernel). Resolution also
     *  materializes the kernel's init closure into memInit, so the
     *  resolved job is pure. */
    std::string kernel;

    /** Fuzz-shard program seed (kind == Fuzz). The generator is a
     *  pure function of the seed, so the spec is fully declarative. */
    uint64_t fuzzSeed = 0;

    /** Full machine configuration, run guards included. */
    machine::MachineConfig config{};

    /** Declarative (byte address, 64-bit word) memory image. */
    std::vector<std::pair<uint64_t, uint64_t>> memInit;

    /** Declarative CPU / FPU register images. */
    std::vector<std::pair<unsigned, uint64_t>> cpuRegInit;
    std::vector<std::pair<unsigned, uint64_t>> fpuRegInit;

    /**
     * Fault-plan text (FaultPlan::parse format); empty = none. A
     * non-empty plan resolves into SimJob::faultPlan, which
     * machine::startJob turns into a FaultInjector hook.
     */
    std::string faultPlan;

    /** Run the lockstep shadow checker beside the machine
     *  (SimJob::lockstep). */
    bool lockstep = false;

    bool operator==(const JobSpec &) const = default;

    /** One JSON object (defaulted fields are still emitted — the
     *  format favors explicitness over byte count). */
    std::string to_json() const;

    /** Decode a parsed JSON object; throws SimError(BadOperand) on
     *  structural problems, unknown kinds, or a number too large for
     *  its field (a code word above 32 bits, say). Missing config
     *  fields take their MachineConfig defaults. */
    static JobSpec from_json(const json::Value &v);

    /** Convenience: parse text then decode. */
    static JobSpec parse(const std::string &text);

    /**
     * Lower the spec into a runnable SimJob: assemble / decode /
     * resolve the program reference, copy the declarative images and
     * the lockstep flag, and parse a fault plan into SimJob::faultPlan
     * when present. Throws SimError on bad program references,
     * malformed assembly, or undecodable words.
     */
    machine::SimJob resolve() const;
};

/**
 * Largest memory.mem_bytes a config may ask for: 64 MB, 16x the
 * default. Resolving a spec builds its image in a memory that size,
 * so an unbounded request from a peer could exhaust the daemon.
 */
inline constexpr uint64_t kMaxMemBytes = 64ull << 20;

/** MachineConfig <-> JSON (shared with the wire protocol).
 *  configFromJson throws SimError(BadOperand) for mem_bytes above
 *  kMaxMemBytes and for a count its field cannot hold. */
std::string configToJson(const machine::MachineConfig &config);
machine::MachineConfig configFromJson(const json::Value &v);

} // namespace mtfpu::service

#endif // MTFPU_SERVICE_JOB_SPEC_HH
