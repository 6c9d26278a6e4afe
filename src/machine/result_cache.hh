/**
 * @file
 * Persistent result cache behind the simulation daemon (DESIGN.md
 * §11). It reuses the result of a pure job across daemon restarts
 * and client processes, keyed by the job's content identity
 * (sim_job.hh): one file per job content hash, holding the canonical
 * content blob (the collision guard) and the serialized RunStats of a
 * completed run.
 *
 * File discipline:
 *  - writes go to a unique temp file and land with an atomic rename,
 *    so a reader only ever sees a complete old entry or a complete
 *    new one, and concurrent writers of the same hash race benignly
 *    (last rename wins; both wrote identical content);
 *  - a trailing CRC-32 covers every byte before it; torn, truncated,
 *    bit-flipped, or version-drifted entries fail verification, are
 *    treated as a miss, and are rewritten after recompute — never
 *    trusted, never fatal;
 *  - lookup re-verifies the stored content blob byte-for-byte against
 *    the requesting job, so a 64-bit hash collision costs a miss, not
 *    a wrong result.
 *
 * Only deterministic outcomes are stored: RunStatus::Ok always, and
 * CycleGuard (the guard bound is part of the content identity). A
 * Watchdog result depends on host wall-clock speed and is never
 * cached.
 */

#ifndef MTFPU_MACHINE_RESULT_CACHE_HH
#define MTFPU_MACHINE_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "machine/sim_job.hh"

namespace mtfpu::machine
{

/**
 * Advisory single-owner lock on a directory, held as a pid file
 * created with O_EXCL. Two daemons pointed at the same cache or
 * journal directory would silently interleave writes; the lock makes
 * the second one fail loudly at startup instead. A lock file left by
 * a crashed owner (its pid no longer exists) is taken over — crash
 * recovery must not require manual cleanup. Construction acquires or
 * throws SimError(ErrCode::Io) naming the live holder; destruction
 * releases. The lock is advisory: only cooperating DirLock users are
 * excluded.
 */
class DirLock
{
  public:
    /** Acquire `<dir>/<name>` (dir is created if missing). */
    explicit DirLock(const std::string &dir,
                     const std::string &name = "owner.lock");
    ~DirLock();

    DirLock(DirLock &&other) noexcept
        : path_(std::move(other.path_)), held_(other.held_)
    {
        other.held_ = false;
    }
    DirLock(const DirLock &) = delete;
    DirLock &operator=(const DirLock &) = delete;
    DirLock &operator=(DirLock &&) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    bool held_ = false;
};

/** On-disk result cache; thread-safe, shared by the daemon's
 *  dispatch threads. */
class ResultCache
{
  public:
    /** Entry format version; bump on any layout change. */
    static constexpr uint32_t kFormatVersion = 2;

    /**
     * @param dir Cache directory (created on first store). One cache
     * instance per directory; multiple processes may share one.
     */
    explicit ResultCache(std::string dir);

    const std::string &dir() const { return dir_; }

    /**
     * Cached stats for @p job, or nullopt on miss. Pure jobs only —
     * a closure-carrying job always misses (and is never stored).
     * Defective entries are removed so the rewrite starts clean.
     */
    std::optional<RunStats> lookup(const SimJob &job);

    /**
     * Store a finished run. Ignored (with a warn) when the job is not
     * pure or the outcome is not cacheable; IO failures warn and drop
     * the entry — caching must never fail the simulation.
     */
    void store(const SimJob &job, const RunStats &stats);

    /** True if @p stats may be served from cache (Ok or CycleGuard). */
    static bool cacheable(const RunStats &stats);

    /** Entry file name for a job: "rc-<contenthash>.res". */
    static std::string fileName(const SimJob &job);

    /** Process-lifetime counters. */
    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }
    uint64_t stores() const { return stores_.load(); }

    /** On-disk census (walks the directory). */
    struct DiskStats
    {
        uint64_t entries = 0;
        uint64_t bytes = 0;
    };
    DiskStats scan() const;

    /** Remove every entry; returns the number removed. */
    uint64_t clear();

  private:
    std::string dir_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> stores_{0};
};

} // namespace mtfpu::machine

#endif // MTFPU_MACHINE_RESULT_CACHE_HH
