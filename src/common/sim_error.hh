/**
 * @file
 * Structured simulator errors. Every fatal() condition carries an
 * error-code taxonomy entry plus (where known) the faulting cycle,
 * PC, and instruction word, and renders itself as machine-readable
 * JSON for crash-report artifacts and triage tooling.
 *
 * SimError derives from FatalError so every pre-existing
 * `catch (const FatalError &)` site — and every EXPECT_THROW in the
 * test suite — keeps working unchanged. InvariantError is the
 * catchable replacement for abort()-style panic(): an internal
 * invariant violation in per-job simulation code must fail that job
 * alone, not take down a 16-thread batch.
 */

#ifndef MTFPU_COMMON_SIM_ERROR_HH
#define MTFPU_COMMON_SIM_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/text.hh"

namespace mtfpu
{

/** Thrown by fatal() so harnesses (and tests) can catch user errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Error taxonomy (DESIGN.md §8). */
enum class ErrCode : uint8_t
{
    Unknown,            // legacy fatal() without a code
    BadEncoding,        // reserved/unknown instruction encoding
    BadOperand,         // out-of-range register/immediate in a builder
    RegFileRange,       // register-file access past the file
    MemRange,           // main-memory access past the end
    MemAlign,           // unaligned 64-bit access
    HazardViolation,    // load/store races an unissued vector element
    BranchDelay,        // control transfer inside a branch delay slot
    PcRunaway,          // PC ran past the program (missing halt)
    NoProgram,          // run() without a loaded program
    CycleGuard,         // maxCycles exceeded
    Watchdog,           // wall-clock watchdog expired
    LockstepDivergence, // differential check against the interpreter
    AssemblerError,     // source-level assembly failure
    InvariantViolation, // internal simulator invariant (panic)
    BadProgram,         // malformed program image (decode validation)
    BadSnapshot,        // truncated/corrupt/incompatible snapshot
    Io,                 // host I/O failure (socket, cache/journal file)
    Busy,               // service admission control rejected the request
    WorkerCrash,        // isolated worker process died (signal/exit)
    WorkerTimeout,      // worker exceeded its wall-clock job deadline
};

/** Stable code names, e.g. "hazard-violation" (common/text.hh). The
 *  wire carries them; a reader maps a name this build does not know
 *  to Unknown, so that hostile input cannot turn a failed job's
 *  record into a protocol error. */
constexpr auto
enumNames(ErrCode)
{
    return nameTable<ErrCode>({
        {ErrCode::Unknown, "unknown"}, {ErrCode::BadEncoding, "bad-encoding"},
        {ErrCode::BadOperand, "bad-operand"},
        {ErrCode::RegFileRange, "regfile-range"},
        {ErrCode::MemRange, "mem-range"}, {ErrCode::MemAlign, "mem-align"},
        {ErrCode::HazardViolation, "hazard-violation"},
        {ErrCode::BranchDelay, "branch-delay"},
        {ErrCode::PcRunaway, "pc-runaway"}, {ErrCode::NoProgram, "no-program"},
        {ErrCode::CycleGuard, "cycle-guard"}, {ErrCode::Watchdog, "watchdog"},
        {ErrCode::LockstepDivergence, "lockstep-divergence"},
        {ErrCode::AssemblerError, "assembler-error"},
        {ErrCode::InvariantViolation, "invariant-violation"},
        {ErrCode::BadProgram, "bad-program"},
        {ErrCode::BadSnapshot, "bad-snapshot"}, {ErrCode::Io, "io"},
        {ErrCode::Busy, "busy"}, {ErrCode::WorkerCrash, "worker-crash"},
        {ErrCode::WorkerTimeout, "worker-timeout"},
    });
}

/** Where an error struck; kUnknown fields are simply not yet known. */
struct ErrContext
{
    static constexpr int64_t kUnknown = -1;

    int64_t cycle = kUnknown; // simulated cycle of death
    int64_t pc = kUnknown;    // instruction index
    int64_t instr = kUnknown; // encoded instruction word (32-bit)

    bool complete() const { return cycle >= 0 && pc >= 0 && instr >= 0; }

    bool operator==(const ErrContext &) const = default;
};

/** A fatal simulator condition with taxonomy and context. */
class SimError : public FatalError
{
  public:
    explicit SimError(ErrCode code, const std::string &what,
                      ErrContext context = ErrContext{})
        : FatalError(what), code_(code), context_(context)
    {}

    ErrCode code() const { return code_; }
    const ErrContext &context() const { return context_; }

    /**
     * Fill context fields that are still unknown (an inner throw site
     * often knows only the message; the Machine's run loop knows the
     * cycle and PC and stamps them on the way out).
     */
    void
    supplyContext(const ErrContext &context)
    {
        if (context_.cycle < 0)
            context_.cycle = context.cycle;
        if (context_.pc < 0)
            context_.pc = context.pc;
        if (context_.instr < 0)
            context_.instr = context.instr;
    }

    /**
     * Machine-readable rendering:
     * {"code":"...","message":"...","cycle":N,"pc":N,"instr":N}
     * (unknown context fields render as null).
     */
    std::string to_json() const;

  private:
    ErrCode code_;
    ErrContext context_;
};

/**
 * A violated internal invariant, thrown by panic(). Deriving from
 * SimError keeps it catchable by per-job containment while still
 * distinguishable from user-input errors.
 */
class InvariantError : public SimError
{
  public:
    explicit InvariantError(const std::string &what)
        : SimError(ErrCode::InvariantViolation, what)
    {}
};

} // namespace mtfpu

#endif // MTFPU_COMMON_SIM_ERROR_HH
