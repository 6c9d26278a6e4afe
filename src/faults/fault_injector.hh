/**
 * @file
 * The FaultInjector interprets a FaultPlan against a live Machine,
 * which calls it through Machine::setHook at the top of every active
 * cycle: it fires every fault whose scheduled cycle has been reached.
 * Because the Machine fast-forwards bulk stalls, the injector may see
 * cycle numbers jump, so it treats a fault's cycle as "at or after",
 * never "exactly at", and fires in schedule order.
 *
 * Site semantics (indices are reduced modulo the real resource count,
 * so randomly generated plans always land on a valid victim):
 *   - FpuReg / CpuReg: XOR the mask into the register (r0 is excluded
 *     — it is architecturally zero);
 *   - MemWord: XOR the mask into an aligned 64-bit memory word;
 *   - CacheLine: corrupt a data-cache line's tag (mask >> 1) and/or
 *     valid bit (mask & 1) — a *timing* fault: the tag store is a
 *     model, so data can never be corrupted, only hit/miss behavior;
 *   - SoftfpResult / SoftfpFlags: arm a one-shot corruption of the
 *     next FPU element's result bits / IEEE flags (a datapath fault
 *     inside the functional unit).
 */

#ifndef MTFPU_FAULTS_FAULT_INJECTOR_HH
#define MTFPU_FAULTS_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_plan.hh"
#include "machine/machine.hh"

namespace mtfpu::faults
{

/** Fires a FaultPlan's faults as cycles pass. */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan);

    /**
     * Called by the Machine at the start of every active cycle with
     * the cycle about to execute, after observers saw the cycle
     * boundary (so a lockstep shadow snapshots clean state before any
     * mutation) but before retirements and issue.
     */
    void onCycleStart(uint64_t cycle, machine::Machine &machine);

    /** Faults fired so far this run. */
    size_t fired() const { return next_; }

    /** Whether every scheduled fault has fired. */
    bool done() const { return next_ == plan_.size(); }

    /**
     * One line per fired fault describing the *resolved* victim
     * (after index reduction), e.g. "@120 fpu-reg f17 ^0x40".
     */
    const std::vector<std::string> &log() const { return log_; }

    const FaultPlan &plan() const { return plan_; }

    /** Rewind for another run of the same plan. */
    void reset();

  private:
    /** Apply one fault to the machine; returns the log line. */
    std::string apply(const Fault &fault, uint64_t cycle,
                      machine::Machine &machine);

    FaultPlan plan_;
    size_t next_ = 0; // first not-yet-fired fault
    std::vector<std::string> log_;
};

} // namespace mtfpu::faults

#endif // MTFPU_FAULTS_FAULT_INJECTOR_HH
