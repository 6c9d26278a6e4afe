/**
 * @file
 * The FPU ALU instruction register and vector element issue logic
 * (paper §2.1.1). A vector instruction is issued by re-issuing the IR
 * contents once per cycle: after each element issues, the vector
 * length field is checked — if zero the instruction is cleared,
 * otherwise VL decrements, the result specifier Rr increments, and
 * Ra/Rb increment iff their stride bits are set. Each element goes
 * through the ordinary scalar scoreboard, so arbitrary inter-element
 * dependencies (reductions, recurrences) are legal and interlocked.
 *
 * The only vector-specific hardware this models is exactly what the
 * paper lists (§2.3): three 6-bit incrementers, one 4-bit decrementer,
 * and the re-issue control.
 */

#ifndef MTFPU_FPU_VECTOR_ISSUE_HH
#define MTFPU_FPU_VECTOR_ISSUE_HH

#include <cstdint>
#include <optional>

#include "common/bytestream.hh"
#include "exec/semantics.hh"
#include "fpu/scoreboard.hh"
#include "isa/fpu_instr.hh"

namespace mtfpu::fpu
{

/** Why the IR could not issue an element this cycle. */
enum class IssueStall
{
    None,        // an element issued
    SourceBusy,  // a source reservation bit is set
    DestBusy,    // the destination reservation bit is set
    Empty,       // the IR holds no instruction
};

/** One element ready to execute, as produced by the IR. */
struct ElementIssue
{
    isa::FpOp op;
    uint8_t rr, ra, rb;
    bool last; // true if this was the final element of the instruction
};

/** The ALU instruction register. */
class AluInstructionRegister
{
  public:
    /** True while an instruction occupies the IR. */
    bool busy() const { return current_.has_value(); }

    /**
     * Transfer a new instruction from the CPU. Only legal when the IR
     * is empty (the CPU stalls otherwise). @p seq tags the
     * instruction so overflow squash can match in-flight elements to
     * their originating vector instruction.
     */
    void transfer(const isa::FpuAluInstr &instr, uint64_t seq);

    /** Sequence tag of the occupying instruction (0 if empty). */
    uint64_t currentSeq() const { return current_ ? current_->seq : 0; }

    /**
     * Attempt to issue the current element against the scoreboard.
     * On success the caller must execute the element and reserve its
     * destination; the IR advances its specifiers (or clears itself
     * after the last element). Inline: this runs once per occupied
     * active cycle and dominated the issue-path profile out of line.
     *
     * Only the element in the IR can reserve a register, so the
     * ready-at times it waits on cannot move while it waits. Each is
     * read once, in the hardware's order — Ra, then Rb for binary
     * operations, then Rr once the sources are ready — and a stalled
     * cycle costs one compare against the cycle the current wait
     * ends. A specifier outside the file therefore faults on the
     * cycle the probe of it would.
     */
    IssueStall
    tryIssue(const Scoreboard &sb, ElementIssue &out)
    {
        if (!current_)
            return IssueStall::Empty;
        const uint64_t now = sb.now();
        if (now < waitUntil_)
            return waitingOn_;

        Live &live = *current_;
        switch (probe_) {
          case Probe::Ra:
            if (waits(sb.readyAt(live.ra), now, IssueStall::SourceBusy,
                      Probe::Rb))
                return waitingOn_;
            [[fallthrough]];
          case Probe::Rb:
            if (!exec::fpOpIsUnary(live.op) &&
                waits(sb.readyAt(live.rb), now, IssueStall::SourceBusy,
                      Probe::Rr))
                return waitingOn_;
            [[fallthrough]];
          case Probe::Rr:
            if (waits(sb.readyAt(live.rr), now, IssueStall::DestBusy,
                      Probe::Done))
                return waitingOn_;
            [[fallthrough]];
          case Probe::Done:
            break;
        }

        out = ElementIssue{live.op, live.rr, live.ra, live.rb,
                           live.vl == 0};
        probe_ = Probe::Ra;

        // After issue: check the VL field; if zero, clear the IR,
        // otherwise decrement it and increment the register specifiers
        // (Rr always; Ra/Rb under their stride bits). Paper §2.1.1.
        if (live.vl == 0) {
            current_.reset();
        } else {
            --live.vl;
            exec::ElementSpecs specs{live.rr, live.ra, live.rb};
            exec::advanceSpecifiers(specs, live.sra, live.srb);
            live.rr = specs.rr;
            live.ra = specs.ra;
            live.rb = specs.rb;
            if (live.rr >= isa::kNumFpuRegs ||
                live.ra >= isa::kNumFpuRegs ||
                live.rb >= isa::kNumFpuRegs) {
                specifierOverflow();
            }
        }
        return IssueStall::None;
    }

    /**
     * Discard all remaining elements (overflow semantics, §2.3.1).
     * No-op if the IR is empty.
     */
    void squash();

    /**
     * True if register @p reg is an operand of the *current* (next to
     * issue) element. The hardware places an execution constraint
     * between the occupying instruction and following loads/stores
     * for this element (§2.3.2: constraints cover the pending
     * element; only "elements in a vector other than the first"
     * require the compiler to break the vector). Result register is
     * always checked; sources only when @p include_sources is set.
     */
    bool currentTouches(unsigned reg, bool include_sources) const;

    /**
     * True if register @p reg belongs to a not-yet-issued element
     * *beyond* the current one — the races the paper leaves to the
     * compiler (§2.3.2), detected by the configurable hazard policy.
     * Result range always checked; source ranges when
     * @p include_sources is set (loads can break WAR against unissued
     * sources, stores only RAW against unissued results).
     */
    bool touchesBeyondCurrent(unsigned reg, bool include_sources) const;

    /** Remaining element count including the one pending (0 if idle). */
    unsigned remainingElements() const;

    /** Reset to empty. */
    void
    clear()
    {
        current_.reset();
        restartProbe();
    }

    /** Visit the occupying instruction (or its absence); loading
     *  rejects an op, specifier or VL field the IR cannot hold. */
    void visit(Archive &ar);

  private:
    /** The next ready-at time the current element reads. */
    enum class Probe : uint8_t
    {
        Ra,
        Rb,
        Rr,
        Done,
    };

    /** Record the probe of one operand: move on to @p next and, if the
     *  operand is ready only after @p now, wait for it as @p why. */
    bool
    waits(uint64_t ready, uint64_t now, IssueStall why, Probe next)
    {
        probe_ = next;
        if (ready <= now)
            return false;
        waitUntil_ = ready;
        waitingOn_ = why;
        return true;
    }

    /** Read the current element's operands afresh at the next probe. */
    void
    restartProbe()
    {
        probe_ = Probe::Ra;
        waitUntil_ = 0;
    }

    [[noreturn]] static void specifierOverflow();

    /** The live IR fields (mutated between elements). */
    struct Live
    {
        isa::FpOp op;
        uint8_t rr, ra, rb;
        uint8_t vl; // remaining VL field value (elements left - 1)
        bool sra, srb;
        uint64_t seq;
    };

    std::optional<Live> current_;

    // Where the current element's scoreboard check stands. Not
    // serialized: it is a function of the scoreboard, rebuilt by
    // probing from Ra after a transfer, squash, reset or restore.
    Probe probe_ = Probe::Ra;
    uint64_t waitUntil_ = 0;  // first active cycle worth probing
    IssueStall waitingOn_ = IssueStall::None; // the stall until then
};

} // namespace mtfpu::fpu

#endif // MTFPU_FPU_VECTOR_ISSUE_HH
