#include "common/file_io.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <system_error>
#include <thread>
#include <unistd.h>

#include "common/log.hh"

namespace mtfpu
{

void
writeFileAtomic(const std::string &path, std::string_view bytes)
{
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    std::error_code ec; // a failure here surfaces as fopen()'s error
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        fatal(ErrCode::Io,
              "cannot write " + tmp + ": " + std::strerror(errno));
    const bool written =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    const bool closed = std::fclose(f) == 0;
    if (!written || !closed) {
        std::remove(tmp.c_str());
        fatal(ErrCode::Io,
              (written ? "cannot close " : "short write to ") + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        std::remove(tmp.c_str());
        fatal(ErrCode::Io, "cannot rename " + tmp + " to " + path + ": " +
                               std::strerror(err));
    }
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal(ErrCode::Io,
              "cannot read " + path + ": " + std::strerror(errno));
    std::string text;
    char buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed)
        fatal(ErrCode::Io, "read error on " + path);
    return text;
}

} // namespace mtfpu
