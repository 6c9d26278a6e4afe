/**
 * @file
 * The MultiTitan FPU model: the unified vector/scalar register file,
 * the reservation-table scoreboard, the three 3-cycle pipelined
 * functional units, the ALU instruction register with vector element
 * re-issue, the load/store path, and the PSW.
 *
 * The Machine drives it cycle by cycle:
 *
 *     fpu.beginCycle();               // writebacks (active cycles only)
 *     fpu.tryIssueElement();          // issue from the occupied ALU IR
 *     ...
 *     if (fpu.canTransferAlu()) {     // CPU-side FPALU transfer
 *         fpu.transferAlu(instr);
 *         fpu.tryIssueElement();      // first element, same cycle
 *     }
 *
 * During a lock-step global stall (cache miss) beginCycle is not
 * called, freezing every pipeline in place.
 */

#ifndef MTFPU_FPU_FPU_HH
#define MTFPU_FPU_FPU_HH

#include <array>
#include <cstdint>
#include <span>

#include "fpu/functional_unit.hh"
#include "fpu/load_store_unit.hh"
#include "fpu/psw.hh"
#include "fpu/register_file.hh"
#include "fpu/scoreboard.hh"
#include "fpu/vector_issue.hh"
#include "softfp/backend.hh"

namespace mtfpu::fpu
{

/** Counters exposed to the Machine statistics. */
struct FpuStats
{
    uint64_t elementsIssued = 0;
    uint64_t vectorInstructions = 0; // FPALU transfers with VL > 1
    uint64_t scalarInstructions = 0; // FPALU transfers with VL == 1
    uint64_t sourceStallCycles = 0;
    uint64_t destStallCycles = 0;
    uint64_t squashedElements = 0;
    std::array<uint64_t, 8> opCounts{}; // indexed by isa::FpOp

    bool operator==(const FpuStats &) const = default;

    void
    visit(Archive &ar)
    {
        ar.u64(elementsIssued);
        ar.u64(vectorInstructions);
        ar.u64(scalarInstructions);
        ar.u64(sourceStallCycles);
        ar.u64(destStallCycles);
        ar.u64(squashedElements);
        for (uint64_t &c : opCounts)
            ar.u64(c);
    }
};

/** Result of one element-issue attempt. */
struct ElementEvent
{
    bool issued = false;
    ElementIssue element{}; // valid when issued
};

/** The FPU coprocessor. */
class Fpu
{
  public:
    /**
     * @param latency Functional-unit latency (3 in the paper).
     * @param backend softfp implementation executing elements; both
     *        choices are bit-identical (softfp/backend.hh).
     */
    explicit Fpu(unsigned latency = kFpuLatency,
                 softfp::Backend backend = softfp::Backend::Soft);

    /**
     * Start an active cycle: lapse due scoreboard reservations, retire
     * the ALU operation whose latency elapsed (merging its flags into
     * the PSW and applying overflow squash) and complete the in-flight
     * load write. Returns the operation retired this cycle, if any, so
     * the Machine can publish it to its observers; the span stays
     * valid until the next element issues. Inline: runs every active
     * cycle, usually with nothing retiring.
     */
    std::span<const PendingOp>
    beginCycle()
    {
        elementIssuedThisCycle_ = false;
        std::span<const PendingOp> retired;
        // Every reservation belongs to an op in flight, so with none
        // in flight the scoreboard's count may pause: nothing is
        // reserved, and a new reservation is relative to the count.
        if (units_.busy()) {
            sb_.beginCycle();
            retired = units_.advance(regs_);
            if (!retired.empty())
                retirePswState(retired.front());
        }
        lsu_.advance(regs_);
        return retired;
    }

    /** Attempt to issue one vector element from the ALU IR.
     *  Inline empty fast path: the IR is idle in scalar-heavy code. */
    ElementEvent
    tryIssueElement()
    {
        if (elementIssuedThisCycle_ || !ir_.busy())
            return ElementEvent{};
        return tryIssueElementSlow();
    }

    /** True if the CPU may transfer an FPU ALU instruction now. */
    bool canTransferAlu() const;

    /** Transfer an FPU ALU instruction into the ALU IR. */
    void transferAlu(const isa::FpuAluInstr &instr);

    /** True while the ALU IR is occupied. */
    bool aluIrBusy() const { return ir_.busy(); }

    /**
     * True if an FPU load/store/mvfc of register @p reg must stall
     * (outstanding ALU write reservation).
     */
    bool transferStall(unsigned reg) const;

    /** Enter an FPU load (data visible next cycle). */
    void issueLoad(unsigned reg, uint64_t value);

    /** Read a register for a store or mvfc (caller checked stalls). */
    uint64_t readForTransfer(unsigned reg) const;

    /**
     * Hardware execution constraint (§2.3.2): true if @p reg is an
     * operand of the current, not-yet-issued element in the ALU IR —
     * a following load/store/mvfc must stall until it issues.
     */
    bool currentElementInterlock(unsigned reg,
                                 bool include_sources) const;

    /**
     * Compiler-responsibility hazard (§2.3.2): true if @p reg belongs
     * to an unissued element beyond the current one. The MultiTitan
     * hardware does not interlock this case; the simulator flags it
     * per the configured policy.
     */
    bool hazardWithUnissued(unsigned reg, bool include_sources) const;

    /** True if any ALU or load operation is still in flight. */
    bool busy() const;

    RegisterFile &regs() { return regs_; }
    const RegisterFile &regs() const { return regs_; }
    Psw &psw() { return psw_; }
    const Psw &psw() const { return psw_; }
    const FpuStats &stats() const { return stats_; }
    unsigned latency() const { return units_.latency(); }
    softfp::Backend backend() const { return backend_; }

    /**
     * Fault-injection hook: corrupt the *next* ALU element to issue.
     * @p result_xor is XORed into the element's 64-bit result;
     * @p flag_xor toggles its IEEE flags (bit 0 overflow, 1 underflow,
     * 2 inexact, 3 invalid, 4 divide-by-zero). One-shot: disarmed as
     * it fires. The disarmed check is a single bool test on the
     * element-issue slow path, so uninjected runs pay nothing.
     */
    void
    armElementCorruption(uint64_t result_xor, uint8_t flag_xor)
    {
        corruptResultXor_ = result_xor;
        corruptFlagXor_ = flag_xor;
        corruptArmed_ = true;
    }

    /** Full reset (registers, pipelines, PSW, statistics). */
    void reset();

    /** Visit all FPU state (registers, scoreboard, pipelines, PSW,
     *  statistics, fault-injection arm state). */
    void visit(Archive &ar);

  private:
    /** Out-of-line tail of beginCycle(): PSW merge + overflow squash. */
    void retirePswState(const PendingOp &op);

    /** Loading tail of visit(): rebuild the scoreboard from the ops in
     *  flight and reject a reservation word they do not account for. */
    void restoreScoreboard(uint64_t reserved);

    /** Out-of-line tail of tryIssueElement(): the IR holds work. */
    ElementEvent tryIssueElementSlow();

    RegisterFile regs_;
    Scoreboard sb_;
    FunctionalUnits units_;
    AluInstructionRegister ir_;
    LoadStoreUnit lsu_;
    Psw psw_;
    FpuStats stats_;
    softfp::Backend backend_;
    uint64_t nextSeq_ = 1;
    bool elementIssuedThisCycle_ = false;

    // One-shot element corruption (armElementCorruption).
    bool corruptArmed_ = false;
    uint64_t corruptResultXor_ = 0;
    uint8_t corruptFlagXor_ = 0;
};

} // namespace mtfpu::fpu

#endif // MTFPU_FPU_FPU_HH
