#include "assembler/assembler.hh"

#include "assembler/parser.hh"
#include "common/log.hh"

namespace mtfpu::assembler
{

void
Program::visit(Archive &ar)
{
    ar.count(code, 4); // bytes per encoded instruction
    for (isa::Instr &in : code) {
        uint32_t word = in.encode();
        ar.u32(word);
        if (ar.loading())
            in = isa::Instr::decode(word);
    }
}

Program
assemble(const std::string &source)
{
    const ParseResult parsed = parse(tokenize(source));

    Program prog;
    prog.labels = parsed.labels;
    prog.code.reserve(parsed.stmts.size());

    for (size_t pc = 0; pc < parsed.stmts.size(); ++pc) {
        const Stmt &stmt = parsed.stmts[pc];
        isa::Instr instr = stmt.instr;
        if (stmt.ref == RefKind::Relative) {
            auto it = parsed.labels.find(stmt.label);
            if (it == parsed.labels.end())
                fatal(ErrCode::AssemblerError,
                      "line " + std::to_string(stmt.line) +
                          ": undefined label '" + stmt.label + "'");
            const int64_t disp =
                static_cast<int64_t>(it->second) -
                static_cast<int64_t>(pc);
            const int width = instr.major == isa::Major::Branch
                                  ? isa::kBranchDispBits
                                  : isa::kJumpDispBits;
            if (!isa::fitsSigned(disp, width))
                fatal(ErrCode::AssemblerError,
                      "line " + std::to_string(stmt.line) +
                          ": branch target out of range");
            instr.imm = static_cast<int32_t>(disp);
        }
        prog.code.push_back(instr);
    }

    return prog;
}

} // namespace mtfpu::assembler
