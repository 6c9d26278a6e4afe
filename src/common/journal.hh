/**
 * @file
 * The append-only NDJSON journal behind every resumable run: the fault
 * and fuzz campaigns' trial journals and the daemon's job journal
 * (DESIGN.md §9.3). Callers own only their record format and what a
 * record means; the rules that let a journal survive a SIGKILL live
 * here, once.
 */

#ifndef MTFPU_COMMON_JOURNAL_HH
#define MTFPU_COMMON_JOURNAL_HH

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>

#include "common/json.hh"

namespace mtfpu::journal
{

/**
 * Appends records, one per line, to a journal file opened in place
 * (O_APPEND, never temp and rename). When the file ends inside a
 * record, the write a kill cut short, the first append starts with a
 * '\n' so its record gets a line of its own; an empty file gets none.
 * Each record goes out with its '\n' in one write(2) under a mutex, so
 * concurrent appenders never interleave and a kill loses at most the
 * record in flight.
 */
class Appender
{
  public:
    /**
     * Open @p path, creating it and its parent directories; throws
     * SimError(Io) when it cannot.
     */
    explicit Appender(std::string path);
    ~Appender();

    Appender(const Appender &) = delete;
    Appender &operator=(const Appender &) = delete;

    /**
     * Write @p record (one JSON document, no newline) and its '\n'.
     * Returns false, after a warning, when the write failed.
     */
    bool append(const std::string &record);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::mutex mutex_; // serializes writes to fd_, guards torn_
    int fd_ = -1;
    bool torn_ = false; // the file ends inside a record
};

/**
 * Call @p apply with the parsed value of each non-blank line of the
 * journal at @p path, in file order. A line that does not parse, or
 * whose @p apply throws SimError, is skipped; one warning gives the
 * count, which is returned. A missing file replays nothing; a file
 * that exists but cannot be read throws SimError(Io).
 */
size_t replay(const std::string &path,
              const std::function<void(const json::Value &)> &apply);

} // namespace mtfpu::journal

#endif // MTFPU_COMMON_JOURNAL_HH
