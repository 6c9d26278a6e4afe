#include "machine/result_cache.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <signal.h>
#include <system_error>
#include <unistd.h>

#include "common/file_io.hh"
#include "common/log.hh"

namespace mtfpu::machine
{

namespace
{

constexpr char kMagic[4] = {'M', 'T', 'R', 'C'};

std::string
hashName(uint64_t hash)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "rc-%016llx.res",
                  static_cast<unsigned long long>(hash));
    return buf;
}

} // anonymous namespace

DirLock::DirLock(const std::string &dir, const std::string &name)
{
    std::filesystem::create_directories(dir);
    path_ = dir + "/" + name;
    // Two takeover attempts at most: after one stale unlink, a second
    // EEXIST means a live competitor won the re-create race — defer
    // to it rather than looping on unlink forever.
    for (int attempt = 0; attempt < 2; ++attempt) {
        const int fd =
            ::open(path_.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
        if (fd >= 0) {
            const std::string pid = std::to_string(::getpid()) + "\n";
            ssize_t put;
            do {
                put = ::write(fd, pid.data(), pid.size());
            } while (put < 0 && errno == EINTR);
            ::close(fd);
            held_ = true;
            return;
        }
        if (errno != EEXIST)
            fatal(ErrCode::Io, "cannot create lock file " + path_ + ": " +
                                   std::strerror(errno));

        // Someone holds it. A readable pid that no longer exists is a
        // crashed owner; take the lock over. An unreadable/garbled
        // file is treated the same — it cannot name a live holder.
        long holder = 0;
        if (std::FILE *f = std::fopen(path_.c_str(), "r")) {
            if (std::fscanf(f, "%ld", &holder) != 1)
                holder = 0;
            std::fclose(f);
        }
        if (holder > 0 && holder != static_cast<long>(::getpid()) &&
            (::kill(static_cast<pid_t>(holder), 0) == 0 ||
             errno == EPERM)) {
            fatal(ErrCode::Io,
                  "directory " + dir + " is locked by live process " +
                      std::to_string(holder) + " (" + path_ + ")");
        }
        if (holder == static_cast<long>(::getpid()))
            fatal(ErrCode::Io, "directory " + dir +
                                   " is already locked by this process");
        warn("taking over stale lock " + path_ + " (owner " +
             std::to_string(holder) + " is gone)");
        ::unlink(path_.c_str());
    }
    fatal(ErrCode::Io,
          "lost the lock takeover race on " + path_ + ", giving up");
}

DirLock::~DirLock()
{
    if (held_)
        ::unlink(path_.c_str());
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

bool
ResultCache::cacheable(const RunStats &stats)
{
    return stats.status == RunStatus::Ok ||
           stats.status == RunStatus::CycleGuard;
}

std::string
ResultCache::fileName(const SimJob &job)
{
    return hashName(jobContentHash(job));
}

std::optional<RunStats>
ResultCache::lookup(const SimJob &job)
{
    if (!isPureJob(job)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    const std::string path = dir_ + "/" + fileName(job);
    std::optional<std::string> data;
    std::error_code ec;
    // Most misses find no entry: answer those without an exception.
    if (std::filesystem::exists(path, ec)) {
        try {
            data = readFile(path);
        } catch (const SimError &) {
            // Removed since, or unreadable: a miss as well.
        }
    }
    if (!data) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }

    // Decode defensively: any structural defect — bad magic, version
    // drift, truncation, CRC mismatch, content mismatch — is a miss.
    // The entry is removed so the post-recompute store starts clean.
    try {
        const auto *bytes = reinterpret_cast<const uint8_t *>(data->data());
        const size_t size = data->size();
        if (size < sizeof(kMagic) + sizeof(uint32_t))
            throw SimError(ErrCode::BadSnapshot, "result cache: truncated");
        const uint32_t stored_crc =
            ByteReader(bytes + size - sizeof(uint32_t), sizeof(uint32_t))
                .u32();
        const uint32_t computed = crc32(bytes, size - sizeof(uint32_t));
        if (stored_crc != computed)
            throw SimError(ErrCode::BadSnapshot, "result cache: bad CRC");

        ByteReader in(bytes, size - sizeof(uint32_t));
        char magic[4];
        for (char &c : magic)
            c = static_cast<char>(in.u8());
        if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
            throw SimError(ErrCode::BadSnapshot, "result cache: bad magic");
        if (in.u32() != kFormatVersion)
            throw SimError(ErrCode::BadSnapshot,
                           "result cache: unknown version");
        const uint64_t hash = in.u64();
        if (hash != jobContentHash(job))
            throw SimError(ErrCode::BadSnapshot,
                           "result cache: hash mismatch");
        const std::vector<uint8_t> content = in.bytes();
        if (content != jobContentBlob(job)) {
            // A real 64-bit collision: another job owns this entry.
            // Do not delete it — just miss.
            misses_.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        }
        const std::vector<uint8_t> statsBlob = in.bytes();
        if (!in.atEnd())
            throw SimError(ErrCode::BadSnapshot,
                           "result cache: trailing bytes");
        ByteReader statsIn(statsBlob);
        RunStats stats;
        stats.restoreState(statsIn);
        if (!cacheable(stats))
            throw SimError(ErrCode::BadSnapshot,
                           "result cache: non-cacheable status");
        hits_.fetch_add(1, std::memory_order_relaxed);
        return stats;
    } catch (const SimError &err) {
        warn("result cache entry " + path + " unusable (" + err.what() +
             "), recomputing");
        std::remove(path.c_str());
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
}

void
ResultCache::store(const SimJob &job, const RunStats &stats)
{
    if (!isPureJob(job) || !cacheable(stats))
        return;
    try {
        ByteWriter out;
        for (char c : kMagic)
            out.u8(static_cast<uint8_t>(c));
        out.u32(kFormatVersion);
        out.u64(jobContentHash(job));
        const std::vector<uint8_t> content = jobContentBlob(job);
        out.bytes(content.data(), content.size());
        ByteWriter statsOut;
        stats.saveState(statsOut);
        out.bytes(statsOut.data().data(), statsOut.size());
        out.u32(crc32(out.data().data(), out.size()));
        const std::vector<uint8_t> &bytes = out.data();
        writeFileAtomic(dir_ + "/" + fileName(job),
                        std::string_view(
                            reinterpret_cast<const char *>(bytes.data()),
                            bytes.size()));
        stores_.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception &err) {
        warn(std::string("result cache store failed: ") + err.what());
    }
}

ResultCache::DiskStats
ResultCache::scan() const
{
    DiskStats stats;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("rc-", 0) == 0 &&
            name.size() > 4 && name.substr(name.size() - 4) == ".res") {
            ++stats.entries;
            std::error_code sec;
            const uint64_t sz = entry.file_size(sec);
            if (!sec)
                stats.bytes += sz;
        }
    }
    return stats;
}

uint64_t
ResultCache::clear()
{
    uint64_t removed = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("rc-", 0) == 0 &&
            name.size() > 4 && name.substr(name.size() - 4) == ".res") {
            std::error_code rec;
            if (std::filesystem::remove(entry.path(), rec) && !rec)
                ++removed;
        }
    }
    return removed;
}

} // namespace mtfpu::machine
