#include "machine/interpreter.hh"

#include "common/log.hh"
#include "exec/semantics.hh"

namespace mtfpu::machine
{

using isa::Instr;
using isa::Major;

namespace
{

/**
 * Apply a semantics mutation to a copy of the decoded FPU word. A
 * stride flip that would run a source specifier past the register
 * file is left unapplied — the mutated shadow must stay a well-formed
 * program, just a wrong one.
 */
isa::FpuAluInstr
mutateFpInstr(isa::FpuAluInstr fp, SemanticsMutation mutation)
{
    switch (mutation) {
      case SemanticsMutation::FlipSra:
        if (fp.sra || fp.ra + fp.length() <= isa::kNumFpuRegs)
            fp.sra = !fp.sra;
        break;
      case SemanticsMutation::FlipSrb:
        if (fp.srb || fp.rb + fp.length() <= isa::kNumFpuRegs)
            fp.srb = !fp.srb;
        break;
      case SemanticsMutation::SwapAddSub:
        if (fp.op == isa::FpOp::Add)
            fp.op = isa::FpOp::Sub;
        else if (fp.op == isa::FpOp::Sub)
            fp.op = isa::FpOp::Add;
        break;
      case SemanticsMutation::None:
      case SemanticsMutation::DropLastElement: // handled at execution
        break;
    }
    return fp;
}

} // anonymous namespace

Interpreter::Interpreter(size_t mem_bytes)
    : mem_(mem_bytes)
{
}

void
Interpreter::loadProgram(assembler::Program program)
{
    program_ = std::move(program);
    iregs_.fill(0);
    fregs_.fill(0);
    pc_ = 0;
    halted_ = false;
    redirectPending_ = false;
    fpElements_ = 0;
}

void
Interpreter::run(uint64_t max_steps)
{
    for (uint64_t n = 0; !halted_; ++n) {
        if (n >= max_steps)
            fatal("Interpreter: exceeded max_steps");
        step();
    }
}

void
Interpreter::step()
{
    if (halted_)
        return;
    if (pc_ >= program_.code.size())
        fatal("Interpreter: PC ran past the end of the program");
    const Instr &in = program_.code[pc_];

    // Delay-slot bookkeeping: a pending redirect fires after this
    // instruction completes.
    const bool redirect_now = redirectPending_;
    const uint32_t target = redirectTarget_;
    redirectPending_ = false;

    auto writeInt = [&](unsigned r, uint64_t v) {
        if (r != 0)
            iregs_[r] = v;
    };

    switch (in.major) {
      case Major::Alu:
        writeInt(in.rd,
                 exec::evalAlu(in.func, intReg(in.rs1), intReg(in.rs2)));
        break;
      case Major::AluImm:
        writeInt(in.rd,
                 exec::evalAlu(in.func, intReg(in.rs1),
                               static_cast<uint64_t>(
                                   static_cast<int64_t>(in.imm))));
        break;
      case Major::Lui:
        writeInt(in.rd, exec::evalLui(in.imm));
        break;
      case Major::Ld:
        writeInt(in.rd, mem_.read64(
                            exec::effectiveAddress(intReg(in.rs1), in.imm)));
        break;
      case Major::St:
        mem_.write64(exec::effectiveAddress(intReg(in.rs1), in.imm),
                     intReg(in.rd));
        break;
      case Major::Ldf:
        fregs_[in.fr] =
            mem_.read64(exec::effectiveAddress(intReg(in.rs1), in.imm));
        break;
      case Major::Stf:
        mem_.write64(exec::effectiveAddress(intReg(in.rs1), in.imm),
                     fregs_[in.fr]);
        break;
      case Major::FpAlu: {
        const isa::FpuAluInstr fp =
            mutation_ == SemanticsMutation::None
                ? in.fp
                : mutateFpInstr(in.fp, mutation_);
        const unsigned n = fp.length();
        unsigned e = 0;
        exec::forEachElement(fp, [&](unsigned rr, unsigned ra,
                                     unsigned rb) {
            if (++e == n && mutation_ == SemanticsMutation::DropLastElement)
                return;
            softfp::Flags flags;
            fregs_[rr] = exec::evalFpOp(fp.op, fregs_[ra], fregs_[rb],
                                        flags, backend_);
            ++fpElements_;
        });
        break;
      }
      case Major::Branch:
        if (exec::evalBranch(in.cond, intReg(in.rs1), intReg(in.rs2))) {
            redirectPending_ = true;
            redirectTarget_ = pc_ + in.imm;
        }
        break;
      case Major::Jump: {
        const exec::JumpEffect effect =
            exec::evalJump(in, pc_, intReg(in.rs1));
        if (effect.writesLink)
            writeInt(effect.linkReg, effect.linkValue);
        redirectPending_ = true;
        redirectTarget_ = effect.target;
        break;
      }
      case Major::Mvfc:
        writeInt(in.rd, fregs_[in.fr]);
        break;
      case Major::Halt:
        halted_ = true;
        return;
      default:
        fatal("Interpreter: unknown opcode");
    }

    pc_ = redirect_now ? target : pc_ + 1;
}

void
Interpreter::visit(Archive &ar)
{
    for (uint64_t &r : iregs_)
        ar.u64(r);
    for (uint64_t &r : fregs_)
        ar.u64(r);
    ar.u32(pc_);
    ar.b(halted_);
    ar.b(redirectPending_);
    ar.u32(redirectTarget_);
    ar.u64(fpElements_);
    ar.enumU8(backend_, softfp::Backend::HostFast, "Interpreter: backend");
    mem_.visit(ar);
}

} // namespace mtfpu::machine
