#include "assembler/parser.hh"

#include "common/log.hh"

namespace mtfpu::assembler
{

using isa::AluFunc;
using isa::BranchCond;
using isa::FpOp;
using isa::Instr;

namespace
{

/** Cursor over the token stream with error helpers. */
class Cursor
{
  public:
    explicit Cursor(const std::vector<Token> &toks) : toks_(toks) {}

    const Token &peek() const { return toks_[pos_]; }
    const Token &next() { return toks_[pos_++]; }
    bool atEnd() const { return peek().kind == TokKind::Eof; }

    [[noreturn]] void
    error(const std::string &msg) const
    {
        fatal(ErrCode::AssemblerError,
              "line " + std::to_string(peek().line) + ": " + msg);
    }

    const Token &
    expect(TokKind kind, const char *what)
    {
        if (peek().kind != kind)
            error(std::string("expected ") + what);
        return next();
    }

    bool
    accept(TokKind kind)
    {
        if (peek().kind == kind) {
            next();
            return true;
        }
        return false;
    }

    unsigned
    intReg()
    {
        const Token &t = expect(TokKind::IntReg, "integer register");
        if (t.value >= isa::kNumIntRegs)
            error("integer register out of range");
        return static_cast<unsigned>(t.value);
    }

    unsigned
    fpReg()
    {
        const Token &t = expect(TokKind::FpReg, "FPU register");
        if (t.value >= isa::kNumFpuRegs)
            error("FPU register out of range");
        return static_cast<unsigned>(t.value);
    }

    int64_t
    number()
    {
        return expect(TokKind::Number, "number").value;
    }

    void comma() { expect(TokKind::Comma, "','"); }

    /** True when a ',' and then a @p kind token come next. */
    bool
    commaThen(TokKind kind) const
    {
        return peek().kind == TokKind::Comma && toks_[pos_ + 1].kind == kind;
    }

  private:
    const std::vector<Token> &toks_;
    size_t pos_ = 0;
};

/** Parse "imm(rb)" addressing. */
void
parseAddress(Cursor &cur, int64_t &imm, unsigned &base)
{
    imm = cur.number();
    cur.expect(TokKind::LParen, "'('");
    base = cur.intReg();
    cur.expect(TokKind::RParen, "')'");
}

} // anonymous namespace

ParseResult
parse(const std::vector<Token> &tokens)
{
    ParseResult result;
    Cursor cur(tokens);

    auto emit = [&](Instr instr, int line, RefKind ref = RefKind::None,
                    std::string label = "") {
        result.stmts.push_back(
            Stmt{instr, ref, std::move(label), line});
    };

    while (!cur.atEnd()) {
        if (cur.accept(TokKind::Newline))
            continue;

        const Token &head = cur.expect(TokKind::Ident, "mnemonic or label");
        const int line = head.line;

        // Label definition?
        if (cur.peek().kind == TokKind::Colon) {
            cur.next();
            if (result.labels.count(head.text))
                fatal("line " + std::to_string(line) +
                      ": duplicate label '" + head.text + "'");
            result.labels[head.text] =
                static_cast<uint32_t>(result.stmts.size());
            continue; // instructions may follow on the same line
        }

        const std::string &m = head.text;

        // The ISA's name tables give the mnemonics; an immediate ALU
        // form is the register form's plus "i".
        const std::optional<AluFunc> immFunc =
            m.back() == 'i'
                ? findEnum<AluFunc>(std::string_view(m).substr(0, m.size() - 1))
                : std::nullopt;
        if (const auto alu = findEnum<AluFunc>(m)) {
            unsigned rd = cur.intReg();
            cur.comma();
            unsigned rs1 = cur.intReg();
            cur.comma();
            unsigned rs2 = cur.intReg();
            emit(Instr::alu(*alu, rd, rs1, rs2), line);
        } else if (immFunc) {
            unsigned rd = cur.intReg();
            cur.comma();
            unsigned rs1 = cur.intReg();
            cur.comma();
            int64_t imm = cur.number();
            emit(Instr::aluImm(*immFunc, rd, rs1, static_cast<int>(imm)),
                 line);
        } else if (const auto bp = findEnum<BranchCond>(m)) {
            unsigned rs1 = cur.intReg();
            cur.comma();
            unsigned rs2 = cur.intReg();
            cur.comma();
            if (cur.peek().kind == TokKind::Ident) {
                std::string target = cur.next().text;
                emit(Instr::branch(*bp, rs1, rs2, 0), line,
                     RefKind::Relative, target);
            } else {
                emit(Instr::branch(*bp, rs1, rs2,
                                   static_cast<int>(cur.number())), line);
            }
        } else if (const auto fp = findEnum<FpOp>(m)) {
            unsigned rr = cur.fpReg();
            cur.comma();
            unsigned ra = cur.fpReg();
            unsigned rb = 0;
            const bool unary = *fp == FpOp::Float ||
                               *fp == FpOp::Truncate || *fp == FpOp::Recip;
            unsigned vl = 1;
            bool sra = false, srb = false;
            // A unary op ignores rb, but a listing names the field
            // (isa::disassemble), so it may follow ra.
            if (!unary || cur.commaThen(TokKind::FpReg)) {
                cur.comma();
                rb = cur.fpReg();
            }
            while (cur.accept(TokKind::Comma)) {
                const Token &opt = cur.expect(TokKind::Ident, "option");
                if (opt.text == "vl") {
                    cur.expect(TokKind::Equals, "'='");
                    int64_t v = cur.number();
                    if (v < 1 || v > isa::kMaxVectorLength)
                        cur.error("vl must be 1..16");
                    vl = static_cast<unsigned>(v);
                } else if (opt.text == "sra") {
                    sra = true;
                } else if (opt.text == "srb") {
                    srb = true;
                } else {
                    cur.error("unknown option '" + opt.text + "'");
                }
            }
            emit(Instr::fpAlu(*fp, rr, ra, rb, vl, sra, srb), line);
        } else if (m == "ld" || m == "st") {
            unsigned r = cur.intReg();
            cur.comma();
            int64_t imm;
            unsigned base;
            parseAddress(cur, imm, base);
            emit(m == "ld"
                     ? Instr::ld(r, base, static_cast<int>(imm))
                     : Instr::st(r, base, static_cast<int>(imm)), line);
        } else if (m == "ldf" || m == "stf") {
            unsigned f = cur.fpReg();
            cur.comma();
            int64_t imm;
            unsigned base;
            parseAddress(cur, imm, base);
            emit(m == "ldf"
                     ? Instr::ldf(f, base, static_cast<int>(imm))
                     : Instr::stf(f, base, static_cast<int>(imm)), line);
        } else if (m == "j") {
            if (cur.peek().kind == TokKind::Ident) {
                emit(Instr::jump(0), line, RefKind::Relative,
                     cur.next().text);
            } else {
                emit(Instr::jump(static_cast<int>(cur.number())), line);
            }
        } else if (m == "jal") {
            unsigned rd = cur.intReg();
            cur.comma();
            if (cur.peek().kind == TokKind::Ident) {
                emit(Instr::jal(rd, 0), line, RefKind::Relative,
                     cur.next().text);
            } else {
                emit(Instr::jal(rd, static_cast<int>(cur.number())), line);
            }
        } else if (m == "jr") {
            emit(Instr::jr(cur.intReg()), line);
        } else if (m == "jalr") {
            unsigned rd = cur.intReg();
            cur.comma();
            emit(Instr::jalr(rd, cur.intReg()), line);
        } else if (m == "lui") {
            unsigned rd = cur.intReg();
            cur.comma();
            emit(Instr::lui(rd, static_cast<int>(cur.number())), line);
        } else if (m == "li") {
            unsigned rd = cur.intReg();
            cur.comma();
            int64_t v = cur.number();
            if (isa::fitsSigned(v, isa::kAluImmBits)) {
                emit(Instr::aluImm(AluFunc::Add, rd, 0,
                                   static_cast<int>(v)), line);
            } else if (v >= 0 &&
                       v < (1LL << (isa::kLuiImmBits + isa::kLuiShift))) {
                emit(Instr::lui(rd,
                                static_cast<int>(v >> isa::kLuiShift)),
                     line);
                const int low = static_cast<int>(
                    v & ((1 << isa::kLuiShift) - 1));
                if (low != 0) {
                    emit(Instr::aluImm(AluFunc::Or, rd, rd, low), line);
                }
            } else {
                cur.error("li constant out of range");
            }
        } else if (m == "mvfc") {
            unsigned rd = cur.intReg();
            cur.comma();
            emit(Instr::mvfc(rd, cur.fpReg()), line);
        } else if (m == "nop") {
            emit(Instr::nop(), line);
        } else if (m == "halt") {
            emit(Instr::halt(), line);
        } else {
            cur.error("unknown mnemonic '" + m + "'");
        }

        if (!cur.accept(TokKind::Newline) && !cur.atEnd())
            cur.error("trailing tokens after instruction");
    }

    return result;
}

} // namespace mtfpu::assembler
