/**
 * @file
 * Differential (lockstep) checking of the cycle model against the
 * untimed Interpreter, built on the ExecObserver event stream. The
 * checker shadow-executes every issued instruction in the interpreter
 * and faults the run on the first divergence:
 *
 *   - at every CPU issue event, the interpreter must be about to
 *     execute the same PC (issue order is architectural order on this
 *     machine — one in-order CPU instruction per cycle);
 *   - at run end, the integer register file, the FPU register file,
 *     all of memory, and the executed FPU element count must match
 *     exactly (the Machine drains its pipelines before returning, so
 *     delayed load/retire writes have landed).
 *
 * Mid-run register comparison is deliberately not attempted: the cycle
 * model's load results and FPU retirements become visible cycles after
 * issue, so transient differences against the instantaneous
 * interpreter are correct behavior, not divergence.
 *
 * Not applicable to programs that overflow: the hardware squashes the
 * remainder of an overflowing vector (§2.3.1) while the functional
 * interpreter executes every element, so they legitimately differ.
 */

#ifndef MTFPU_MACHINE_LOCKSTEP_HH
#define MTFPU_MACHINE_LOCKSTEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/observer.hh"
#include "machine/interpreter.hh"
#include "machine/machine.hh"

namespace mtfpu::machine
{

/**
 * Structured record of the *first* divergence between the cycle model
 * and the shadow interpreter — the unit of triage for fault campaigns
 * and for debugging genuine model bugs.
 */
struct DivergenceReport
{
    /** One differing piece of architectural state. */
    struct Delta
    {
        std::string what;    // e.g. "r5", "f17", "mem[0x10040]"
        uint64_t machine = 0;
        uint64_t interp = 0;
    };

    /** Cycle count when the divergence was detected. */
    uint64_t cycle = 0;
    /** Instructions cross-checked before the divergence. */
    uint64_t instructions = 0;
    /** Detection site: "issue-pc" (mid-run) or "final-state". */
    std::string where;
    /** Machine/interpreter PCs at an issue-pc divergence. */
    uint64_t machinePc = 0;
    uint64_t interpPc = 0;
    /** Disassembly of the diverging instruction (issue-pc only). */
    std::string disasm;
    /** State deltas (final-state only), capped at kMaxDeltas. */
    std::vector<Delta> deltas;
    /** Deltas seen beyond the cap (0 when the list is complete). */
    uint64_t deltasDropped = 0;

    static constexpr size_t kMaxDeltas = 64;

    /** One-object JSON form for crash reports and campaign logs. */
    std::string to_json() const;
};

/** Observer that shadow-executes the Interpreter under a Machine. */
class LockstepChecker : public exec::ExecObserver
{
  public:
    /**
     * Bind to @p machine (which must outlive the checker). Attach
     * with machine.addObserver(&checker); the checker snapshots the
     * program and memory image at the first active cycle of each run,
     * so attach before run() and after memory setup. machine::startJob
     * does both for a job with SimJob::lockstep set.
     */
    explicit LockstepChecker(Machine &machine);

    void onCycle(uint64_t cycle) override;
    void onIssue(const exec::IssueEvent &event) override;
    void onRunEnd(uint64_t cycles) override;

    /** Instructions cross-checked so far in the current run. */
    uint64_t issuesChecked() const { return issues_; }

    /** Completed run verifications (incremented at each clean run end). */
    uint64_t runsVerified() const { return runsVerified_; }

    /** The shadow interpreter (for test introspection). */
    const Interpreter &interpreter() const { return interp_; }

    /**
     * Mutable shadow access, used to install a SemanticsMutation
     * before the run — the fuzzer's oracle-validation mode checks
     * that a campaign against a deliberately wrong shadow reports
     * the divergence. Mutating any other shadow state mid-run makes
     * divergence reports meaningless; don't.
     */
    Interpreter &interpreter() { return interp_; }

    /** Whether the current/last run diverged. */
    bool diverged() const { return diverged_; }

    /**
     * The first-divergence report of the last run. Valid only when
     * diverged() — the checker throws SimError(LockstepDivergence)
     * at the point of divergence, so callers read this from the
     * catch site.
     */
    const DivergenceReport &report() const { return report_; }

    /**
     * Visit the checker's mid-run state (shadow interpreter, armed
     * flag, counters). Paired with the bound Machine's state this
     * makes a paused lockstep run fully resumable — a forked trial
     * restores both sides and continues checking exactly where the
     * prefix run paused. To load, the bound Machine must have the
     * same program loaded (the shadow reloads it).
     */
    void visit(Archive &ar);

    /** visit() as bytes, for callers outside the state code. */
    void saveState(ByteWriter &out) const { Archive::save(out, *this); }
    void restoreState(ByteReader &in) { Archive::load(in, *this); }

  private:
    /** Snapshot the machine's program and memory into the shadow. */
    void arm();

    /** Record @p report and throw SimError(LockstepDivergence). */
    [[noreturn]] void diverge(DivergenceReport report);

    /** Full architectural-state comparison; throws on divergence. */
    void compareFinalState(uint64_t cycles);

    Machine &machine_;
    Interpreter interp_;
    uint64_t issues_ = 0;
    uint64_t runsVerified_ = 0;
    bool armed_ = false;
    bool diverged_ = false;
    DivergenceReport report_;
};

} // namespace mtfpu::machine

#endif // MTFPU_MACHINE_LOCKSTEP_HH
