#include "service/wire.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <mutex>
#include <vector>

#include "common/bytestream.hh"
#include "common/log.hh"
#include "common/text.hh"

namespace mtfpu::service
{

namespace
{

sockaddr_un
makeAddr(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() + 1 > sizeof(addr.sun_path)) {
        fatal(ErrCode::Io, "socket path too long (" +
                               std::to_string(path.size()) + " > " +
                               std::to_string(sizeof(addr.sun_path) - 1) +
                               "): " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

[[noreturn]] void
sysFatal(const std::string &what, const std::string &path)
{
    fatal(ErrCode::Io, what + " " + path + ": " + std::strerror(errno));
}

void
setCloexec(int fd)
{
    const int flags = ::fcntl(fd, F_GETFD);
    if (flags >= 0)
        ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

void
setNodelay(int fd)
{
    // Request/response lines are tiny; Nagle would add 40ms stalls to
    // every round trip for nothing.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** getaddrinfo for a "HOST:PORT" pair; caller frees with freeaddrinfo. */
addrinfo *
resolveTcp(const std::string &hostport, bool passive)
{
    std::string host;
    uint16_t port = 0;
    parseHostPort(hostport, host, port);
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = passive ? AI_PASSIVE : 0;
    addrinfo *result = nullptr;
    const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                                 std::to_string(port).c_str(), &hints,
                                 &result);
    if (rc != 0) {
        fatal(ErrCode::Io, "cannot resolve " + hostport + ": " +
                               ::gai_strerror(rc));
    }
    return result;
}

} // anonymous namespace

void
ignoreSigpipe()
{
    // A dead peer must surface as EPIPE on the write that hit it, not
    // as a process-killing signal: one worker's vanished supervisor
    // (or one client's vanished daemon) is that endpoint's problem
    // alone. std::call_once keeps the handler install race-free when
    // several connection threads start at once.
    static std::once_flag once;
    std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

void
parseHostPort(const std::string &hostport, std::string &host,
              uint16_t &port)
{
    const size_t colon = hostport.rfind(':');
    if (colon == std::string::npos || colon + 1 == hostport.size()) {
        fatal(ErrCode::BadOperand,
              "TCP address must be HOST:PORT, got '" + hostport + "'");
    }
    host = hostport.substr(0, colon);
    const std::string port_text = hostport.substr(colon + 1);
    const std::optional<uint16_t> value = parseNumber<uint16_t>(port_text);
    if (!value) {
        fatal(ErrCode::BadOperand,
              "bad TCP port '" + port_text + "' in '" + hostport + "'");
    }
    port = *value;
}

int
listenUnix(const std::string &path, int backlog)
{
    ignoreSigpipe();
    const sockaddr_un addr = makeAddr(path);
    ::unlink(path.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        sysFatal("socket() for", path);
    setCloexec(fd);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        sysFatal("bind() to", path);
    }
    if (::listen(fd, backlog) != 0) {
        const int saved = errno;
        ::close(fd);
        ::unlink(path.c_str());
        errno = saved;
        sysFatal("listen() on", path);
    }
    return fd;
}

int
connectUnix(const std::string &path)
{
    ignoreSigpipe();
    const sockaddr_un addr = makeAddr(path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        sysFatal("socket() for", path);
    setCloexec(fd);
    int rc;
    do {
        rc = ::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                       sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        sysFatal("connect() to", path);
    }
    return fd;
}

int
listenTcp(const std::string &hostport, int backlog, uint16_t *bound_port)
{
    ignoreSigpipe();
    addrinfo *addrs = resolveTcp(hostport, /*passive=*/true);
    int fd = -1;
    int lastErrno = 0;
    for (addrinfo *ai = addrs; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            lastErrno = errno;
            continue;
        }
        setCloexec(fd);
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, backlog) == 0)
            break;
        lastErrno = errno;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(addrs);
    if (fd < 0) {
        errno = lastErrno;
        sysFatal("cannot listen on tcp", hostport);
    }
    if (bound_port != nullptr) {
        sockaddr_storage bound{};
        socklen_t len = sizeof(bound);
        *bound_port = 0;
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0) {
            if (bound.ss_family == AF_INET) {
                *bound_port = ntohs(
                    reinterpret_cast<sockaddr_in *>(&bound)->sin_port);
            } else if (bound.ss_family == AF_INET6) {
                *bound_port = ntohs(
                    reinterpret_cast<sockaddr_in6 *>(&bound)->sin6_port);
            }
        }
    }
    return fd;
}

int
connectTcp(const std::string &hostport)
{
    ignoreSigpipe();
    addrinfo *addrs = resolveTcp(hostport, /*passive=*/false);
    int fd = -1;
    int lastErrno = 0;
    for (addrinfo *ai = addrs; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            lastErrno = errno;
            continue;
        }
        setCloexec(fd);
        int rc;
        do {
            rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
        } while (rc != 0 && errno == EINTR);
        if (rc == 0) {
            setNodelay(fd);
            break;
        }
        lastErrno = errno;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(addrs);
    if (fd < 0) {
        errno = lastErrno;
        sysFatal("connect() to tcp", hostport);
    }
    return fd;
}

int
connectEndpoint(const std::string &address)
{
    if (address.rfind("tcp:", 0) == 0)
        return connectTcp(address.substr(4));
    return connectUnix(address);
}

LineChannel::~LineChannel()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
LineChannel::readLine(std::string &line)
{
    return readLineTimed(line, -1) == ReadStatus::Line;
}

LineChannel::ReadStatus
LineChannel::readLineTimed(std::string &line, int timeout_ms)
{
    using clock = std::chrono::steady_clock;
    const clock::time_point deadline =
        clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            if (maxLineBytes_ > 0 && nl > maxLineBytes_)
                return ReadStatus::Overflow;
            line.assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            return ReadStatus::Line;
        }
        // The whole buffer is one unterminated line; a bounded channel
        // refuses to let a newline-less peer grow it without limit.
        if (maxLineBytes_ > 0 && buf_.size() > maxLineBytes_)
            return ReadStatus::Overflow;
        if (timeout_ms >= 0) {
            // Poll with the remaining budget so several short reads
            // (a line arriving in fragments) share one deadline.
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(deadline - clock::now());
            const int wait =
                left.count() > 0 ? static_cast<int>(left.count()) : 0;
            pollfd pfd{fd_, POLLIN, 0};
            int ready;
            do {
                ready = ::poll(&pfd, 1, wait);
            } while (ready < 0 && errno == EINTR);
            if (ready < 0) {
                lastErrno_ = errno;
                return ReadStatus::Error;
            }
            if (ready == 0)
                return ReadStatus::Timeout;
        }
        char chunk[4096];
        ssize_t got;
        do {
            got = ::read(fd_, chunk, sizeof(chunk));
        } while (got < 0 && errno == EINTR);
        if (got == 0) {
            // EOF; any buffered fragment is torn and never surfaces.
            lastErrno_ = 0;
            return ReadStatus::Eof;
        }
        if (got < 0) {
            lastErrno_ = errno;
            return ReadStatus::Error;
        }
        buf_.append(chunk, static_cast<size_t>(got));
    }
}

bool
LineChannel::writeLine(const std::string &line)
{
    using clock = std::chrono::steady_clock;
    const clock::time_point deadline =
        clock::now() + std::chrono::milliseconds(
                           writeTimeoutMs_ < 0 ? 0 : writeTimeoutMs_);
    std::string out = line;
    out.push_back('\n');
    size_t sent = 0;
    while (sent < out.size()) {
        if (writeTimeoutMs_ >= 0) {
            // A peer that stops draining its socket (slow loris) must
            // not park this thread forever: wait for writability
            // within the per-write budget, then give up.
            const auto left = std::chrono::duration_cast<
                std::chrono::milliseconds>(deadline - clock::now());
            if (left.count() <= 0) {
                lastErrno_ = ETIMEDOUT;
                return false;
            }
            pollfd pfd{fd_, POLLOUT, 0};
            int ready;
            do {
                ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
            } while (ready < 0 && errno == EINTR);
            if (ready < 0) {
                lastErrno_ = errno;
                return false;
            }
            if (ready == 0) {
                lastErrno_ = ETIMEDOUT;
                return false;
            }
        }
        ssize_t put = ::write(fd_, out.data() + sent, out.size() - sent);
        if (put < 0 && errno == EINTR)
            continue;
        if (put < 0 && writeTimeoutMs_ >= 0 &&
            (errno == EAGAIN || errno == EWOULDBLOCK))
            continue; // raced the poll; re-wait on the deadline
        if (put <= 0) {
            lastErrno_ = put < 0 ? errno : EIO;
            return false;
        }
        sent += static_cast<size_t>(put);
    }
    return true;
}

void
LineChannel::writeLineOrThrow(const std::string &line, const char *who)
{
    if (!writeLine(line)) {
        fatal(ErrCode::Io, std::string(who) + ": peer disconnected (" +
                               std::strerror(lastErrno_) + ")");
    }
}

std::string
errorResponse(const std::string &message, const std::string &error_code)
{
    json::Writer w;
    w.beginObject();
    w.key("ok").value(false);
    w.key("error").value(message);
    if (!error_code.empty())
        w.key("error_code").value(error_code);
    w.endObject();
    return w.str();
}

namespace
{

std::string
bytesToHex(const std::vector<uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (uint8_t b : bytes) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

std::vector<uint8_t>
hexToBytes(const std::string &hex)
{
    if (hex.size() % 2 != 0)
        fatal(ErrCode::BadOperand, "hex blob has odd length");
    auto nibble = [](char c) -> unsigned {
        if (c >= '0' && c <= '9')
            return static_cast<unsigned>(c - '0');
        if (c >= 'a' && c <= 'f')
            return static_cast<unsigned>(c - 'a' + 10);
        if (c >= 'A' && c <= 'F')
            return static_cast<unsigned>(c - 'A' + 10);
        fatal(ErrCode::BadOperand,
              std::string("bad hex digit '") + c + "'");
    };
    std::vector<uint8_t> out;
    out.reserve(hex.size() / 2);
    for (size_t i = 0; i < hex.size(); i += 2)
        out.push_back(
            static_cast<uint8_t>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
    return out;
}

} // anonymous namespace

std::string
statsToHex(const machine::RunStats &stats)
{
    ByteWriter w;
    stats.saveState(w);
    return bytesToHex(w.data());
}

machine::RunStats
statsFromHex(const std::string &hex)
{
    const std::vector<uint8_t> blob = hexToBytes(hex);
    ByteReader r(blob);
    machine::RunStats stats;
    stats.restoreState(r);
    return stats;
}

void
writeJobResult(json::Writer &w, const machine::SimJobResult &r)
{
    w.key("name").value(r.name);
    w.key("job_ok").value(r.ok);
    w.key("status").value(machine::runStatusName(r.stats.status));
    w.key("cycles").value(r.stats.cycles);
    w.key("attempts").value(static_cast<uint64_t>(r.attempts));
    w.key("quarantined").value(r.quarantined);
    w.key("from_cache").value(r.fromCache);
    if (!r.ok)
        w.key("job_error").raw(r.failure().to_json());
    if (r.ok || r.stats.status != machine::RunStatus::Ok)
        w.key("stats_hex").value(statsToHex(r.stats));
}

machine::SimJobResult
readJobResult(const json::Value &v)
{
    machine::SimJobResult r;
    r.name = v.at("name").asString();
    r.ok = v.at("job_ok").asBool();
    r.attempts = static_cast<unsigned>(v.at("attempts").asUint());
    r.quarantined = v.at("quarantined").asBool();
    r.fromCache = v.at("from_cache").asBool();
    if (v.has("job_error")) {
        // The inverse of SimError::to_json(); a code name this build
        // does not know reads as Unknown.
        const json::Value &e = v.at("job_error");
        const auto field = [&e](const char *name) {
            const json::Value &f = e.at(name);
            return f.isNull() ? ErrContext::kUnknown : f.asInt();
        };
        r.fail(SimError(findEnum<ErrCode>(e.at("code").asString())
                            .value_or(ErrCode::Unknown),
                        e.at("message").asString(),
                        ErrContext{field("cycle"), field("pc"),
                                   field("instr")}));
    }
    if (v.has("stats_hex"))
        r.stats = statsFromHex(v.at("stats_hex").asString());
    return r;
}

} // namespace mtfpu::service
