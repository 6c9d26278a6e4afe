/**
 * @file
 * The whole-machine cycle model: one MultiTitan processor as in
 * Figure 1 — the CPU, the FPU coprocessor, and the shared memory
 * system — driven in lock step.
 *
 * Issue rules implemented here (paper §2, validated cycle-exactly
 * against Figures 5-8 and 13 in the tests):
 *   - the CPU issues at most one instruction per cycle, in order;
 *   - an FPU ALU instruction transfers into the ALU IR only when the
 *     IR is empty and no element issued this cycle; its first element
 *     issues the same cycle;
 *   - the ALU IR re-issues one element per cycle, interlocked by the
 *     scoreboard, while the CPU continues issuing loads/stores and
 *     loop overhead (peak two operations per cycle);
 *   - FPU load data is visible to elements issuing the next cycle;
 *     CPU load data is visible two cycles after issue (one delay
 *     slot);
 *   - stores occupy the memory port for two cycles;
 *   - branches and jumps have one (always-executed) delay slot;
 *   - cache misses freeze the whole machine (lock-step stall).
 *
 * Instruction *semantics* (what each operation computes) live in
 * src/exec and are shared with the untimed Interpreter; this class
 * owns only the timing policy. Instrumentation is decoupled through
 * the exec::ExecObserver event stream — tracing, statistics, and
 * lockstep checking all attach via addObserver().
 */

#ifndef MTFPU_MACHINE_MACHINE_HH
#define MTFPU_MACHINE_MACHINE_HH

#include <cstdint>
#include <vector>

#include "assembler/assembler.hh"
#include "cpu/cpu.hh"
#include "exec/observer.hh"
#include "fpu/fpu.hh"
#include "machine/config.hh"
#include "machine/hook.hh"
#include "machine/observers.hh"
#include "machine/stats.hh"
#include "machine/tracer.hh"
#include "memory/memory_system.hh"

namespace mtfpu::machine
{

/** One MultiTitan processor. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = MachineConfig{});

    /** Load a program image; resets architectural state. */
    void loadProgram(assembler::Program program);

    /** Run from the current PC until halt (plus pipeline drain). */
    RunStats run();

    /**
     * Run until the machine would simulate cycle @p stop_cycle, then
     * pause (status RunStatus::Paused) with every pipeline and counter
     * snapshot-consistent: a following run()/runUntil() — or a
     * saveState()/restoreState() round trip — continues bit-identically
     * to an uninterrupted run. Completes normally (status Ok, or a
     * guard status) if the program ends first; the maxCycles guard
     * takes priority over the pause.
     */
    RunStats runUntil(uint64_t stop_cycle);

    /** Cycle the next run()/runUntil() call will simulate first. */
    uint64_t nextCycle() const { return nextCycle_; }

    /**
     * Visit the complete per-run machine state — architectural
     * (registers, PC, PSW, memory) and microarchitectural (scoreboard,
     * in-flight pipeline entries, cache tags, stall/port bookkeeping,
     * statistics counters). The program image and configuration are
     * NOT included; snapshot::MachineSnapshot carries those. To load,
     * the same program must already be loaded (loading does not touch
     * the predecoded code) and the configuration must match the
     * saving machine's.
     */
    void visit(Archive &ar);

    /** visit() as bytes, for callers outside the state code. */
    void saveState(ByteWriter &out) const { Archive::save(out, *this); }
    void restoreState(ByteReader &in) { Archive::load(in, *this); }

    /**
     * Reset architectural and statistics state for another run of the
     * same program. Keeping the caches warm models the paper's
     * "run the loops twice" warm-cache methodology.
     */
    void resetForRun(bool flush_caches);

    /**
     * Register an event observer. Observers are notified in
     * registration order; the Machine does not take ownership and the
     * pointer must stay valid until removed (or the Machine dies).
     */
    void addObserver(exec::ExecObserver *observer);

    /** Unregister an observer (no-op if not registered). */
    void removeObserver(exec::ExecObserver *observer);

    /**
     * Install the mutating per-cycle hook (nullptr detaches). Unlike
     * observers the hook may change machine state — fault injectors
     * use it to flip register/memory/cache bits at scheduled cycles.
     * The pointer must stay valid while installed; the unhooked fast
     * path costs one pointer test per cycle.
     */
    void setHook(MachineHook *hook) { hook_ = hook; }
    MachineHook *hook() const { return hook_; }

    /**
     * Model an interrupt (paper §2.3.1): from @p cycle, the CPU stops
     * issuing for @p duration cycles (as if vectored to a handler)
     * while the FPU keeps re-issuing vector elements — "vector ALU
     * instructions may continue long after an interrupt". Cleared by
     * resetForRun.
     */
    void
    scheduleInterrupt(uint64_t cycle, uint64_t duration)
    {
        interruptAt_ = cycle;
        interruptLen_ = duration;
    }

    memory::MainMemory &mem() { return memsys_.mem(); }
    memory::MemorySystem &memorySystem() { return memsys_; }
    fpu::Fpu &fpu() { return fpu_; }
    cpu::Cpu &cpu() { return cpu_; }
    const MachineConfig &config() const { return config_; }
    const assembler::Program &program() const { return program_; }

  private:
    /**
     * One predecoded, issue-ready instruction. loadProgram lowers the
     * assembler::Program into this dense form once, so the per-cycle
     * issue path never re-extracts fields, sign-extends immediates,
     * or recomputes fetch addresses:
     *  - imm64: the immediate in operand form — sign-extended to 64
     *    bits for AluImm and load/store displacements, the shifted
     *    constant for Lui;
     *  - target: the resolved pc-relative redirect target (Branch,
     *    J/Jal);
     *  - link: the jal/jalr link value (the address past the delay
     *    slot);
     *  - fetchAddr: the instruction's byte fetch address (pc * 4).
     */
    struct IssueSlot
    {
        isa::Major major;
        isa::AluFunc func;
        isa::BranchCond cond;
        isa::JumpKind jkind;
        uint8_t rd, rs1, rs2, fr;
        uint64_t imm64;
        uint32_t target;
        uint32_t link;
        uint64_t fetchAddr;
        isa::FpuAluInstr fp;
        const isa::Instr *raw; // original instruction (observer events)
    };

    /** Lower program_ into the predecoded issue form. */
    void predecode();

    /** Attempt one CPU instruction issue; true if something issued. */
    bool tryCpuIssue(uint64_t cycle);

    /**
     * Advance PC after an issue. @p redirect_pending is whether a
     * taken branch was already outstanding when this instruction
     * (its delay slot) issued — only then does the redirect fire.
     */
    void finishIssue(bool redirect_pending);

    /** Record a CPU stall cycle and return false (issue helper). */
    bool stallCpu(uint64_t cycle);

    /** Handle an unissued-element race per the configured policy. */
    bool handleHazard(uint64_t cycle, unsigned reg, bool include_sources);

    // Event fan-out: the built-in stats collector first, then every
    // registered observer in order.
    void notifyCycle(uint64_t cycle);
    void notifyIssue(const exec::IssueEvent &event);
    void notifyElement(const exec::ElementEvent &event);
    void notifyMemAccess(const exec::MemAccessEvent &event);
    void notifyRetire(const exec::RetireEvent &event);
    void notifyStall(const exec::StallEvent &event);
    void notifyRunEnd(uint64_t cycles);

    /** Emit an ElementEvent for a just-issued FPU element. */
    void emitElement(uint64_t cycle, const fpu::ElementIssue &element);

    MachineConfig config_;
    memory::MemorySystem memsys_;
    fpu::Fpu fpu_;
    cpu::Cpu cpu_;
    assembler::Program program_;
    std::vector<IssueSlot> code_; // predecoded program_ image
    /** The run loop body; catches SimError to stamp its context.
     *  Pauses before simulating @p stop_cycle (UINT64_MAX = never). */
    RunStats runLoop(uint64_t stop_cycle);

    /** Fill @p err's unknown context fields (cycle/pc/instr). */
    void stampErrContext(SimError &err, uint64_t cycle) const;

    /** Finalize stats for a run that ended at @p cycle. */
    RunStats finishRun(uint64_t cycle, RunStatus status);

    StatsCollector collector_;
    std::vector<exec::ExecObserver *> observers_;
    bool hasObservers_ = false; // cached !observers_.empty()
    MachineHook *hook_ = nullptr;

    // Per-run microarchitectural state.
    uint64_t memPortFreeAt_ = 0;
    int64_t fetchedPc_ = -1;
    uint64_t globalStall_ = 0;
    uint64_t interruptAt_ = UINT64_MAX;
    uint64_t interruptLen_ = 0;
    uint64_t nextCycle_ = 0; // where the next run()/runUntil() resumes
    RunStats stats_;
};

} // namespace mtfpu::machine

#endif // MTFPU_MACHINE_MACHINE_HH
