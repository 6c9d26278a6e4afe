/**
 * @file
 * The execution observer interface. The Machine publishes a stream of
 * architectural/microarchitectural events — active cycles, CPU
 * instruction issues, FPU vector element issues, data/instruction
 * memory accesses, element retirements, and CPU stall cycles — to any
 * number of registered ExecObserver instances.
 *
 * Every built-in consumer is a plug-in of this interface rather than
 * hard-wired into the pipeline: the Tracer (timing diagrams), the
 * StatsCollector (event-derived RunStats counters), and the
 * LockstepChecker (the untimed Interpreter shadow-executing under the
 * cycle model and faulting on divergence). User code can register its
 * own observers for custom instrumentation without touching the
 * Machine.
 *
 * Hook-order contract within one cycle: onCycle, then onRetire for
 * every element written back, then onElement for an element re-issued
 * from the standing ALU IR, then the CPU-side events (onMemAccess /
 * onIssue; for an FPALU transfer, onIssue precedes the first element's
 * onElement). onStall fires in place of onIssue on a CPU-stalled
 * cycle. The cycles of a lock-step freeze (a cache or
 * instruction-buffer miss in flight) fire nothing: the Machine burns
 * them in one step, and the MemAccessEvent that caused the freeze
 * carries its length.
 */

#ifndef MTFPU_EXEC_OBSERVER_HH
#define MTFPU_EXEC_OBSERVER_HH

#include <cstdint>

#include "isa/cpu_instr.hh"

namespace mtfpu::exec
{

/** A CPU instruction completed issue. */
struct IssueEvent
{
    uint64_t cycle;
    uint32_t pc;             // instruction index of the issued op
    const isa::Instr *instr; // valid only for the callback's duration
    bool branchTaken;        // Branch/Jump: whether the redirect fires
};

/** An FPU ALU vector element issued (from the ALU IR). */
struct ElementEvent
{
    uint64_t cycle;
    isa::FpOp op;
    uint8_t rr, ra, rb; // element specifiers
    bool last;          // final element of its vector instruction
    unsigned latency;   // functional-unit latency in cycles
};

/** What kind of memory access an issued instruction performed. */
enum class MemAccessKind : uint8_t
{
    Load,      // CPU integer load
    Store,     // CPU integer store
    FpLoad,    // FPU load
    FpStore,   // FPU store
    InstrFetch // instruction-buffer fetch
};

/** One memory access, with the global-stall penalty it incurred. */
struct MemAccessEvent
{
    uint64_t cycle;
    uint64_t addr;
    MemAccessKind kind;
    unsigned penalty; // lock-step stall cycles caused (0 = hit)
};

/** An FPU element retired: its result became architecturally visible. */
struct RetireEvent
{
    uint64_t cycle;
    isa::FpOp op;
    uint8_t reg;     // destination register
    uint64_t value;  // written-back result bits
    bool overflowed; // overflow squashes the rest of the vector (§2.3.1)
};

/** A cycle in which the CPU could not issue (structural/data hazard).
 *  A lock-step freeze publishes no per-cycle events: its length is
 *  the MemAccessEvent::penalty of the access that caused it. */
struct StallEvent
{
    uint64_t cycle;
};

/** Observer interface; every hook defaults to a no-op. */
class ExecObserver
{
  public:
    virtual ~ExecObserver() = default;

    /** An active (non-frozen) machine cycle began. */
    virtual void onCycle(uint64_t cycle) { (void)cycle; }

    /** A CPU instruction issued. */
    virtual void onIssue(const IssueEvent &event) { (void)event; }

    /** A vector element issued into a functional unit. */
    virtual void onElement(const ElementEvent &event) { (void)event; }

    /** A memory access was performed. */
    virtual void onMemAccess(const MemAccessEvent &event) { (void)event; }

    /** An element's result was written back. */
    virtual void onRetire(const RetireEvent &event) { (void)event; }

    /** The CPU could not issue this active cycle. */
    virtual void onStall(const StallEvent &event) { (void)event; }

    /** The run completed (pipelines drained); @p cycles is final. */
    virtual void onRunEnd(uint64_t cycles) { (void)cycles; }
};

} // namespace mtfpu::exec

#endif // MTFPU_EXEC_OBSERVER_HH
