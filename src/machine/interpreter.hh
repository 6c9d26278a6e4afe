/**
 * @file
 * A purely functional (untimed) interpreter of the ISA. It executes
 * instructions strictly in program order — vector ALU instructions
 * expand element by element — with the same architectural semantics
 * as the cycle model (branch/jump delay slots included). Both engines
 * delegate instruction semantics to src/exec, so they cannot drift;
 * the interpreter serves as the oracle for the semantics-vs-timing
 * property tests and for the LockstepChecker observer that
 * shadow-executes it under the cycle model.
 */

#ifndef MTFPU_MACHINE_INTERPRETER_HH
#define MTFPU_MACHINE_INTERPRETER_HH

#include <array>
#include <cstdint>

#include "assembler/assembler.hh"
#include "common/text.hh"
#include "memory/main_memory.hh"
#include "softfp/backend.hh"

namespace mtfpu::machine
{

/**
 * Deliberate semantics bugs for mutation-testing the differential
 * oracle (DESIGN.md §10): the fuzzer's acceptance property is that a
 * lockstep campaign against a mutated shadow finds and minimizes the
 * injected bug. Mutations apply to FPU ALU execution only and survive
 * loadProgram(), so a checker re-arming between runs keeps the bug.
 */
enum class SemanticsMutation : uint8_t
{
    None,            // faithful semantics (the default)
    FlipSra,         // invert the Ra stride bit (when still in range)
    FlipSrb,         // invert the Rb stride bit (when still in range)
    DropLastElement, // skip the final element of every vector
    SwapAddSub,      // execute fadd as fsub and vice versa
};

/** Stable mutation names, e.g. "flip-sra" (common/text.hh). */
constexpr auto
enumNames(SemanticsMutation)
{
    return nameTable<SemanticsMutation>({
        {SemanticsMutation::None, "none"},
        {SemanticsMutation::FlipSra, "flip-sra"},
        {SemanticsMutation::FlipSrb, "flip-srb"},
        {SemanticsMutation::DropLastElement, "drop-last-element"},
        {SemanticsMutation::SwapAddSub, "swap-add-sub"},
    });
}

/** The untimed reference interpreter. */
class Interpreter
{
  public:
    explicit Interpreter(size_t mem_bytes = 4u << 20);

    /**
     * Select the softfp backend for FPU elements (default Soft). Both
     * backends are bit-identical; a lockstep shadow mirrors its
     * Machine's choice so the comparison stays apples to apples.
     */
    void setBackend(softfp::Backend backend) { backend_ = backend; }
    softfp::Backend backend() const { return backend_; }

    /** Install a deliberate semantics bug (mutation testing). */
    void setMutation(SemanticsMutation mutation) { mutation_ = mutation; }
    SemanticsMutation mutation() const { return mutation_; }

    /** Load a program and reset registers (memory is preserved). */
    void loadProgram(assembler::Program program);

    /**
     * Run until halt; fatal() after @p max_steps instructions (guards
     * against runaway programs in randomized tests).
     */
    void run(uint64_t max_steps = 100'000'000);

    /**
     * Execute exactly one instruction (public so a lockstep driver
     * can single-step in time with the cycle model's issue events).
     * No-op once halted.
     */
    void step();

    memory::MainMemory &mem() { return mem_; }
    const memory::MainMemory &mem() const { return mem_; }
    const assembler::Program &program() const { return program_; }
    uint64_t intReg(unsigned r) const { return r == 0 ? 0 : iregs_[r]; }
    uint64_t fpReg(unsigned r) const { return fregs_[r]; }

    /** Preload register state (e.g. lockstep arming from a Machine). */
    void setIntReg(unsigned r, uint64_t v)
    {
        if (r != 0)
            iregs_[r] = v;
    }
    void setFpReg(unsigned r, uint64_t v) { fregs_[r] = v; }

    uint32_t pc() const { return pc_; }
    bool halted() const { return halted_; }

    /** Count of FPU ALU elements executed (for cross-checking). */
    uint64_t fpElements() const { return fpElements_; }

    /** Visit functional state (registers, PC, memory, counters).
     *  The program is NOT included: to load, the same program must
     *  already be loaded. */
    void visit(Archive &ar);

  private:
    assembler::Program program_;
    memory::MainMemory mem_;
    std::array<uint64_t, isa::kNumIntRegs> iregs_{};
    std::array<uint64_t, isa::kNumFpuRegs> fregs_{};
    uint32_t pc_ = 0;
    bool halted_ = false;
    bool redirectPending_ = false;
    uint32_t redirectTarget_ = 0;
    uint64_t fpElements_ = 0;
    softfp::Backend backend_ = softfp::Backend::Soft;
    SemanticsMutation mutation_ = SemanticsMutation::None;
};

} // namespace mtfpu::machine

#endif // MTFPU_MACHINE_INTERPRETER_HH
