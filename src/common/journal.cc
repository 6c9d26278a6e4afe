#include "common/journal.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <unistd.h>

#include "common/log.hh"

namespace mtfpu::journal
{

Appender::Appender(std::string path) : path_(std::move(path))
{
    const std::filesystem::path parent =
        std::filesystem::path(path_).parent_path();
    std::error_code ec; // a failure here surfaces as open()'s error
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);
    fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC,
                 0666);
    if (fd_ < 0)
        fatal(ErrCode::Io, "cannot open journal " + path_ + ": " +
                               std::strerror(errno));
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    char last = '\n';
    if (size > 0 && ::pread(fd_, &last, 1, size - 1) != 1)
        last = 0;
    torn_ = last != '\n';
}

Appender::~Appender()
{
    ::close(fd_);
}

bool
Appender::append(const std::string &record)
{
    std::string why;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const std::string line = (torn_ ? "\n" : "") + record + '\n';
        const ssize_t n = ::write(fd_, line.data(), line.size());
        // A short or failed write may leave part of the line behind;
        // the next record then starts on a fresh line, as after a kill.
        torn_ = n != static_cast<ssize_t>(line.size());
        if (!torn_)
            return true;
        why = n < 0 ? std::strerror(errno) : "short write";
    }
    warn("journal " + path_ + ": append failed: " + why);
    return false;
}

size_t
replay(const std::string &path,
       const std::function<void(const json::Value &)> &apply)
{
    std::ifstream in(path, std::ios::binary);
    std::error_code ec;
    if (!in && !std::filesystem::exists(path, ec))
        return 0;
    size_t skipped = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        try {
            apply(json::parse(line));
        } catch (const SimError &) {
            ++skipped;
        }
    }
    if (in.bad() || !in.eof())
        fatal(ErrCode::Io, "cannot read journal " + path);
    if (skipped)
        warn("journal " + path + ": skipped " + std::to_string(skipped) +
             " line(s) that did not parse or apply (a torn write from a "
             "killed run, or corruption)");
    return skipped;
}

} // namespace mtfpu::journal
