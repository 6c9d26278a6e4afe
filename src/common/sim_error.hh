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

/** Short stable name of a code, e.g. "hazard-violation". */
const char *errCodeName(ErrCode code);

/**
 * Parse a code name back (the wire protocol carries names, not enum
 * values, so a client can reconstruct the server's taxonomy entry).
 * The exact hello check admits no newer daemon, so a well-behaved
 * peer only sends names this build knows; unrecognized names still
 * map to ErrCode::Unknown rather than throwing, so hostile input
 * cannot turn a failed job's record into a protocol error.
 */
ErrCode errCodeFromName(const std::string &name);

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
