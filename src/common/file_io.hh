/**
 * @file
 * Whole-file reads and atomic whole-file writes, for the artifacts the
 * tools leave behind: campaign and crash reports, fuzz crash bundles,
 * exported spec files, result-cache entries and the compacted job
 * journal. A report written here is either absent, the old one or the
 * new one, never torn, whatever kills the writer.
 */

#ifndef MTFPU_COMMON_FILE_IO_HH
#define MTFPU_COMMON_FILE_IO_HH

#include <string>
#include <string_view>

namespace mtfpu
{

/**
 * Replace @p path with @p bytes atomically: write a temp file beside
 * it, named for this process and thread so concurrent writers of one
 * path never share one, and rename it over @p path. Creates the parent
 * directories. Throws SimError(Io) when the open, a write, the close
 * or the rename fails, after removing the temp file.
 */
void writeFileAtomic(const std::string &path, std::string_view bytes);

/** The whole of @p path; throws SimError(Io) when it cannot be read. */
std::string readFile(const std::string &path);

} // namespace mtfpu

#endif // MTFPU_COMMON_FILE_IO_HH
