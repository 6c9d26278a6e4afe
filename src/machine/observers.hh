/**
 * @file
 * Built-in ExecObserver implementations that used to be hard-wired
 * into the Machine. The StatsCollector derives every event-countable
 * RunStats field from the observer stream; the Machine itself only
 * contributes the final cycle count and the subsystem (FPU/cache)
 * counter blocks.
 */

#ifndef MTFPU_MACHINE_OBSERVERS_HH
#define MTFPU_MACHINE_OBSERVERS_HH

#include "exec/observer.hh"
#include "machine/stats.hh"

namespace mtfpu::machine
{

/** Derives RunStats issue/stall/memory counters from the event stream. */
class StatsCollector : public exec::ExecObserver
{
  public:
    void
    onCycle(uint64_t cycle) override
    {
        (void)cycle;
        elementBeforeIssue_ = false;
        issueSeen_ = false;
    }

    void
    onIssue(const exec::IssueEvent &event) override
    {
        ++counts_.instructionsIssued;
        issueSeen_ = true;
        // Dual issue means a standing-IR element re-issued alongside a
        // CPU instruction. The first element of an FPALU transfer
        // rides the transfer itself and is not counted (the element
        // event follows the issue event in that case).
        if (elementBeforeIssue_)
            ++counts_.dualIssueCycles;
        switch (event.instr->major) {
          case isa::Major::FpAlu:
            ++counts_.fpAluTransfers;
            break;
          case isa::Major::Branch:
          case isa::Major::Jump:
            ++counts_.branches;
            if (event.branchTaken)
                ++counts_.takenBranches;
            break;
          default:
            break;
        }
    }

    void
    onElement(const exec::ElementEvent &event) override
    {
        (void)event;
        if (!issueSeen_)
            elementBeforeIssue_ = true;
    }

    void
    onMemAccess(const exec::MemAccessEvent &event) override
    {
        switch (event.kind) {
          case exec::MemAccessKind::Load: ++counts_.loads; break;
          case exec::MemAccessKind::Store: ++counts_.stores; break;
          case exec::MemAccessKind::FpLoad: ++counts_.fpLoads; break;
          case exec::MemAccessKind::FpStore: ++counts_.fpStores; break;
          case exec::MemAccessKind::InstrFetch: break;
        }
    }

    void
    onStall(const exec::StallEvent &event) override
    {
        (void)event;
        ++counts_.cpuStallCycles;
    }

    /**
     * Account @p n memory-stall cycles at once. The Machine burns each
     * lock-step freeze in one step and publishes no per-cycle event
     * for it, so this is how its cycles are counted.
     */
    void addMemoryStalls(uint64_t n) { counts_.memoryStallCycles += n; }

    /** Copy the event-derived counters into @p stats. */
    void
    fill(RunStats &stats) const
    {
        stats.instructionsIssued = counts_.instructionsIssued;
        stats.loads = counts_.loads;
        stats.stores = counts_.stores;
        stats.fpLoads = counts_.fpLoads;
        stats.fpStores = counts_.fpStores;
        stats.fpAluTransfers = counts_.fpAluTransfers;
        stats.branches = counts_.branches;
        stats.takenBranches = counts_.takenBranches;
        stats.memoryStallCycles = counts_.memoryStallCycles;
        stats.cpuStallCycles = counts_.cpuStallCycles;
        stats.dualIssueCycles = counts_.dualIssueCycles;
    }

    /** Zero all counters (start of a run). */
    void
    reset()
    {
        counts_ = RunStats{};
        elementBeforeIssue_ = false;
        issueSeen_ = false;
    }

    /** Visit counters and intra-cycle pairing state. */
    void
    visit(Archive &ar)
    {
        counts_.visit(ar);
        ar.b(elementBeforeIssue_);
        ar.b(issueSeen_);
    }

  private:
    RunStats counts_;
    // Per-cycle dual-issue pairing state (reset by onCycle).
    bool elementBeforeIssue_ = false;
    bool issueSeen_ = false;
};

} // namespace mtfpu::machine

#endif // MTFPU_MACHINE_OBSERVERS_HH
