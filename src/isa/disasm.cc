#include "isa/disasm.hh"

#include <cstdio>
#include <map>

#include "assembler/assembler.hh"
#include "common/log.hh"

namespace mtfpu::isa
{

const char *
fpOpSymbol(FpOp op)
{
    switch (op) {
      case FpOp::Add: return "+";
      case FpOp::Sub: return "-";
      case FpOp::Mul: return "*";
      case FpOp::IntMul: return "*i";
      case FpOp::IterStep: return "iter";
      case FpOp::Float: return "float";
      case FpOp::Truncate: return "trunc";
      case FpOp::Recip: return "recip";
    }
    return "?";
}

std::string
fpElementText(FpOp op, unsigned rr, unsigned ra, unsigned rb)
{
    char buf[64];
    if (op == FpOp::Float || op == FpOp::Truncate || op == FpOp::Recip) {
        std::snprintf(buf, sizeof(buf), "f%u := %s f%u", rr,
                      fpOpSymbol(op), ra);
    } else {
        std::snprintf(buf, sizeof(buf), "f%u := f%u %s f%u", rr, ra,
                      fpOpSymbol(op), rb);
    }
    return buf;
}

std::string
disassemble(const Instr &i)
{
    char buf[96];
    switch (i.major) {
      case Major::Alu:
        std::snprintf(buf, sizeof(buf), "%s r%u, r%u, r%u",
                      enumName(i.func), i.rd, i.rs1, i.rs2);
        break;
      case Major::AluImm:
        std::snprintf(buf, sizeof(buf), "%si r%u, r%u, %d",
                      enumName(i.func), i.rd, i.rs1, i.imm);
        break;
      case Major::Ld:
        std::snprintf(buf, sizeof(buf), "ld r%u, %d(r%u)", i.rd, i.imm,
                      i.rs1);
        break;
      case Major::St:
        std::snprintf(buf, sizeof(buf), "st r%u, %d(r%u)", i.rd, i.imm,
                      i.rs1);
        break;
      case Major::Ldf:
        std::snprintf(buf, sizeof(buf), "ldf f%u, %d(r%u)", i.fr, i.imm,
                      i.rs1);
        break;
      case Major::Stf:
        std::snprintf(buf, sizeof(buf), "stf f%u, %d(r%u)", i.fr, i.imm,
                      i.rs1);
        break;
      case Major::FpAlu:
        return i.fp.toString();
      case Major::Branch:
        std::snprintf(buf, sizeof(buf), "%s r%u, r%u, %d",
                      enumName(i.cond), i.rs1, i.rs2, i.imm);
        break;
      case Major::Jump:
        switch (i.jkind) {
          case JumpKind::J:
            std::snprintf(buf, sizeof(buf), "j %d", i.imm);
            break;
          case JumpKind::Jal:
            std::snprintf(buf, sizeof(buf), "jal r%u, %d", i.rd, i.imm);
            break;
          case JumpKind::Jr:
            std::snprintf(buf, sizeof(buf), "jr r%u", i.rs1);
            break;
          case JumpKind::Jalr:
            std::snprintf(buf, sizeof(buf), "jalr r%u, r%u", i.rd, i.rs1);
            break;
        }
        break;
      case Major::Lui:
        std::snprintf(buf, sizeof(buf), "lui r%u, %d", i.rd, i.imm);
        break;
      case Major::Mvfc:
        std::snprintf(buf, sizeof(buf), "mvfc r%u, f%u", i.rd, i.fr);
        break;
      case Major::Halt:
        return "halt";
      default:
        return "<bad>";
    }
    return buf;
}

std::string
disassemble(uint32_t word)
{
    return disassemble(Instr::decode(word));
}

std::string
disassembleProgram(const assembler::Program &program)
{
    // Reverse label map (first label wins per address).
    std::map<uint32_t, std::string> names;
    for (const auto &[name, addr] : program.labels)
        names.emplace(addr, name);

    std::string out;
    char buf[160];
    for (uint32_t pc = 0; pc < program.code.size(); ++pc) {
        const Instr &in = program.code[pc];
        if (auto it = names.find(pc); it != names.end())
            out += it->second + ":\n";

        std::string text = disassemble(in);
        // Annotate relative control flow with resolved targets.
        if (in.major == Major::Branch ||
            (in.major == Major::Jump && (in.jkind == JumpKind::J ||
                                         in.jkind == JumpKind::Jal))) {
            const uint32_t target = pc + in.imm;
            std::string label;
            if (auto it = names.find(target); it != names.end())
                label = it->second;
            std::snprintf(buf, sizeof(buf), "   ; -> %u%s%s", target,
                          label.empty() ? "" : " (",
                          label.empty() ? "" : (label + ")").c_str());
            text += buf;
        }
        std::snprintf(buf, sizeof(buf), "%6u:  %08x  %s\n", pc,
                      in.encode(), text.c_str());
        out += buf;
    }
    return out;
}

} // namespace mtfpu::isa
