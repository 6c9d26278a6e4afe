#include "common/sim_error.hh"

#include "common/json.hh"

namespace mtfpu
{

const char *
errCodeName(ErrCode code)
{
    switch (code) {
      case ErrCode::Unknown: return "unknown";
      case ErrCode::BadEncoding: return "bad-encoding";
      case ErrCode::BadOperand: return "bad-operand";
      case ErrCode::RegFileRange: return "regfile-range";
      case ErrCode::MemRange: return "mem-range";
      case ErrCode::MemAlign: return "mem-align";
      case ErrCode::HazardViolation: return "hazard-violation";
      case ErrCode::BranchDelay: return "branch-delay";
      case ErrCode::PcRunaway: return "pc-runaway";
      case ErrCode::NoProgram: return "no-program";
      case ErrCode::CycleGuard: return "cycle-guard";
      case ErrCode::Watchdog: return "watchdog";
      case ErrCode::LockstepDivergence: return "lockstep-divergence";
      case ErrCode::AssemblerError: return "assembler-error";
      case ErrCode::InvariantViolation: return "invariant-violation";
      case ErrCode::BadProgram: return "bad-program";
      case ErrCode::BadSnapshot: return "bad-snapshot";
      case ErrCode::Io: return "io";
      case ErrCode::Busy: return "busy";
      case ErrCode::WorkerCrash: return "worker-crash";
      case ErrCode::WorkerTimeout: return "worker-timeout";
    }
    return "unknown";
}

ErrCode
errCodeFromName(const std::string &name)
{
    static constexpr ErrCode codes[] = {
        ErrCode::Unknown,          ErrCode::BadEncoding,
        ErrCode::BadOperand,       ErrCode::RegFileRange,
        ErrCode::MemRange,         ErrCode::MemAlign,
        ErrCode::HazardViolation,  ErrCode::BranchDelay,
        ErrCode::PcRunaway,        ErrCode::NoProgram,
        ErrCode::CycleGuard,       ErrCode::Watchdog,
        ErrCode::LockstepDivergence, ErrCode::AssemblerError,
        ErrCode::InvariantViolation, ErrCode::BadProgram,
        ErrCode::BadSnapshot,      ErrCode::Io,
        ErrCode::Busy,             ErrCode::WorkerCrash,
        ErrCode::WorkerTimeout,
    };
    for (ErrCode code : codes)
        if (name == errCodeName(code))
            return code;
    return ErrCode::Unknown;
}

std::string
SimError::to_json() const
{
    json::Writer w;
    const auto field = [&w](const char *name, int64_t value) {
        if (value < 0)
            w.key(name).null();
        else
            w.key(name).value(value);
    };
    w.beginObject();
    w.key("code").value(errCodeName(code_));
    w.key("message").value(what());
    field("cycle", context_.cycle);
    field("pc", context_.pc);
    field("instr", context_.instr);
    w.endObject();
    return w.str();
}

} // namespace mtfpu
