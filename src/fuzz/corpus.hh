/**
 * @file
 * Text serialization of fuzz programs (DESIGN.md §10). A corpus entry
 * is a line-oriented `.prog` file:
 *
 *     # optional comments
 *     seed 0x1234abcd
 *     mem 0x10000 0x3ff0000000000000
 *     code 0x0000000f  ; halt
 *
 * The disassembly after `;` is a comment for humans; only the encoded
 * word is parsed back, and every word is revalidated through
 * isa::Instr::decode so a corrupt corpus file fails with a structured
 * SimError instead of feeding garbage to the simulator. Each number
 * is one whole unsigned token, hex after 0x and decimal otherwise
 * (common/text.hh): `010` is ten, and `-8` is refused.
 */

#ifndef MTFPU_FUZZ_CORPUS_HH
#define MTFPU_FUZZ_CORPUS_HH

#include <string>
#include <vector>

#include "fuzz/program_gen.hh"

namespace mtfpu::fuzz
{

/** Render @p prog in the corpus text format (with disassembly). */
std::string formatProgram(const FuzzProgram &prog);

/**
 * Parse the corpus text format. Throws SimError (BadProgram) on
 * malformed lines and SimError (BadEncoding) on undecodable words.
 */
FuzzProgram parseProgram(const std::string &text);

/** formatProgram to @p path (writeFileAtomic); throws SimError (Io)
 *  on IO error. */
void writeProgramFile(const std::string &path, const FuzzProgram &prog);

/** parseProgram from @p path; throws SimError (Io) on IO error. */
FuzzProgram readProgramFile(const std::string &path);

/** Sorted paths of all `.prog` files directly under @p dir. */
std::vector<std::string> listCorpus(const std::string &dir);

} // namespace mtfpu::fuzz

#endif // MTFPU_FUZZ_CORPUS_HH
