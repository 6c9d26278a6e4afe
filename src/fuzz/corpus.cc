#include "fuzz/corpus.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/file_io.hh"
#include "common/log.hh"
#include "isa/disasm.hh"

namespace mtfpu::fuzz
{

namespace
{

std::string
hex(uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Parse one 0x-or-decimal u64 token; false on garbage. */
bool
parseU64(const std::string &token, uint64_t &out)
{
    if (token.empty())
        return false;
    size_t pos = 0;
    try {
        out = std::stoull(token, &pos, 0);
    } catch (const std::exception &) {
        return false;
    }
    return pos == token.size();
}

} // anonymous namespace

std::string
formatProgram(const FuzzProgram &prog)
{
    std::ostringstream out;
    out << "# mtfpu fuzz program\n";
    out << "seed " << hex(prog.seed) << "\n";
    for (const auto &[addr, word] : prog.memInit)
        out << "mem " << hex(addr) << " " << hex(word) << "\n";
    for (const isa::Instr &in : prog.code) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "0x%08x", in.encode());
        out << "code " << buf << "  ; " << isa::disassemble(in) << "\n";
    }
    return out.str();
}

FuzzProgram
parseProgram(const std::string &text)
{
    FuzzProgram prog;
    prog.seed = 0;
    std::istringstream in(text);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        // Strip comments (';' or '#') and surrounding whitespace.
        const size_t semi = line.find(';');
        if (semi != std::string::npos)
            line.erase(semi);
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::string key;
        if (!(fields >> key))
            continue; // blank
        std::string a, b, extra;
        if (key == "seed") {
            if (!(fields >> a) || !parseU64(a, prog.seed) ||
                fields >> extra)
                fatal(ErrCode::BadProgram,
                      "corpus: malformed seed line " +
                          std::to_string(lineno));
        } else if (key == "mem") {
            uint64_t addr = 0, word = 0;
            if (!(fields >> a >> b) || !parseU64(a, addr) ||
                !parseU64(b, word) || fields >> extra)
                fatal(ErrCode::BadProgram,
                      "corpus: malformed mem line " +
                          std::to_string(lineno));
            prog.memInit.emplace_back(addr, word);
        } else if (key == "code") {
            uint64_t word = 0;
            if (!(fields >> a) || !parseU64(a, word) ||
                word > 0xffffffffULL || fields >> extra)
                fatal(ErrCode::BadProgram,
                      "corpus: malformed code line " +
                          std::to_string(lineno));
            // Revalidate: decode throws BadEncoding on a bad word.
            prog.code.push_back(
                isa::Instr::decode(static_cast<uint32_t>(word)));
        } else {
            fatal(ErrCode::BadProgram,
                  "corpus: unknown directive '" + key + "' on line " +
                      std::to_string(lineno));
        }
    }
    if (prog.code.empty())
        fatal(ErrCode::BadProgram, "corpus: no code lines");
    return prog;
}

void
writeProgramFile(const std::string &path, const FuzzProgram &prog)
{
    writeFileAtomic(path, formatProgram(prog));
}

FuzzProgram
readProgramFile(const std::string &path)
{
    return parseProgram(readFile(path));
}

std::vector<std::string>
listCorpus(const std::string &dir)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".prog")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace mtfpu::fuzz
