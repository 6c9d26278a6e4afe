#include "exec/semantics.hh"

#include "common/log.hh"

namespace mtfpu::exec
{

uint64_t
evalAlu(isa::AluFunc func, uint64_t a, uint64_t b)
{
    using isa::AluFunc;
    switch (func) {
      case AluFunc::Add: return a + b;
      case AluFunc::Sub: return a - b;
      case AluFunc::And: return a & b;
      case AluFunc::Or: return a | b;
      case AluFunc::Xor: return a ^ b;
      case AluFunc::Sll: return a << (b & 63);
      case AluFunc::Srl: return a >> (b & 63);
      case AluFunc::Sra:
        return static_cast<uint64_t>(static_cast<int64_t>(a) >> (b & 63));
      case AluFunc::Slt:
        return static_cast<int64_t>(a) < static_cast<int64_t>(b) ? 1 : 0;
      case AluFunc::Sltu: return a < b ? 1 : 0;
      case AluFunc::Mul:
        return a * b; // the signed product's low 64 bits, without UB
    }
    panic("evalAlu: bad function");
}

bool
evalBranch(isa::BranchCond cond, uint64_t a, uint64_t b)
{
    using isa::BranchCond;
    switch (cond) {
      case BranchCond::Eq: return a == b;
      case BranchCond::Ne: return a != b;
      case BranchCond::Lt:
        return static_cast<int64_t>(a) < static_cast<int64_t>(b);
      case BranchCond::Ge:
        return static_cast<int64_t>(a) >= static_cast<int64_t>(b);
      case BranchCond::Ltu: return a < b;
      case BranchCond::Geu: return a >= b;
    }
    panic("evalBranch: bad condition");
}

uint64_t
evalLui(int32_t imm)
{
    return static_cast<uint64_t>(imm) << isa::kLuiShift;
}

uint64_t
effectiveAddress(uint64_t base, int32_t imm)
{
    return base + static_cast<int64_t>(imm);
}

uint32_t
linkAddress(uint32_t pc)
{
    return pc + 2;
}

JumpEffect
evalJump(const isa::Instr &in, uint32_t pc, uint64_t rs1)
{
    JumpEffect effect;
    switch (in.jkind) {
      case isa::JumpKind::J:
        effect.target = pc + in.imm;
        break;
      case isa::JumpKind::Jal:
        effect.target = pc + in.imm;
        effect.writesLink = true;
        break;
      case isa::JumpKind::Jr:
        effect.target = static_cast<uint32_t>(rs1);
        break;
      case isa::JumpKind::Jalr:
        effect.target = static_cast<uint32_t>(rs1);
        effect.writesLink = true;
        break;
    }
    if (effect.writesLink) {
        effect.linkReg = in.rd;
        effect.linkValue = linkAddress(pc);
    }
    return effect;
}

bool
fpOpIsUnary(isa::FpOp op)
{
    return op == isa::FpOp::Float || op == isa::FpOp::Truncate ||
           op == isa::FpOp::Recip;
}

uint64_t
evalFpOp(isa::FpOp op, uint64_t a, uint64_t b, softfp::Flags &flags)
{
    return softfp::fpuOperate(isa::fpOpUnit(op), isa::fpOpFunc(op), a, b,
                              flags);
}

uint64_t
evalFpOp(isa::FpOp op, uint64_t a, uint64_t b, softfp::Flags &flags,
         softfp::Backend backend)
{
    if (backend == softfp::Backend::Soft)
        return evalFpOp(op, a, b, flags);
    using isa::FpOp;
    switch (op) {
      case FpOp::Add: return softfp::fpAddHost(a, b, flags);
      case FpOp::Sub: return softfp::fpSubHost(a, b, flags);
      case FpOp::Float: return softfp::fpFloatHost(a, flags);
      case FpOp::Truncate: return softfp::fpTruncateHost(a, flags);
      case FpOp::Mul: return softfp::fpMulHost(a, b, flags);
      case FpOp::IntMul: return softfp::fpIntMul(a, b);
      case FpOp::IterStep: return softfp::fpIterStep(a, b, flags);
      case FpOp::Recip: return softfp::fpRecipApprox(a, flags);
    }
    panic("evalFpOp: bad operation");
}

void
advanceSpecifiers(ElementSpecs &specs, bool sra, bool srb)
{
    ++specs.rr;
    if (sra)
        ++specs.ra;
    if (srb)
        ++specs.rb;
}

} // namespace mtfpu::exec
