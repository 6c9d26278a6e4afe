#include "bench/chaos.hh"

#include <chrono>
#include <random>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/log.hh"
#include "service/wire.hh"

namespace mtfpu::service
{

namespace
{

/** Forward @p n bytes, riding out short writes; false on error. */
bool
sendAll(int fd, const char *buf, size_t n)
{
    size_t off = 0;
    while (off < n) {
        const ssize_t sent =
            ::send(fd, buf + off, n - off, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(sent);
    }
    return true;
}

} // anonymous namespace

void
ChaosProxy::Relay::tear()
{
    // shutdown (not close): both pump threads may still be blocked in
    // recv on these fds, and closing an fd out from under a blocked
    // reader is a race against fd reuse. Half-closing wakes them with
    // EOF; the owner closes after joining.
    if (clientFd >= 0)
        ::shutdown(clientFd, SHUT_RDWR);
    if (upstreamFd >= 0)
        ::shutdown(upstreamFd, SHUT_RDWR);
}

ChaosProxy::ChaosProxy(std::string listen_hostport, std::string target,
                       ChaosPlan plan)
    : listenHostPort_(std::move(listen_hostport)),
      target_(std::move(target)), plan_(plan)
{}

ChaosProxy::~ChaosProxy()
{
    stop();
}

void
ChaosProxy::start()
{
    listenFd_ = listenTcp(listenHostPort_, 16, &port_);
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
ChaosProxy::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return;
        stopping_ = true;
        for (const std::shared_ptr<Relay> &relay : relays_)
            relay->tear();
    }
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        threads.swap(relayThreads_);
    }
    for (std::thread &t : threads)
        if (t.joinable())
            t.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
ChaosProxy::acceptLoop()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener shut down (stop) or fatal
        }
        const uint64_t index =
            connections_.fetch_add(1, std::memory_order_relaxed);
        auto relay = std::make_shared<Relay>();
        relay->clientFd = fd;
        try {
            relay->upstreamFd = connectEndpoint(target_);
        } catch (const SimError &err) {
            warn("chaos-proxy: upstream dial failed: " +
                 std::string(err.what()));
            ::close(fd);
            continue;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            ::close(relay->clientFd);
            ::close(relay->upstreamFd);
            return;
        }
        relays_.push_back(relay);
        relayThreads_.emplace_back(
            [this, relay, index] { runRelay(relay, index); });
    }
}

void
ChaosProxy::runRelay(std::shared_ptr<Relay> relay, uint64_t conn_index)
{
    // Direction 0: client → upstream (requests); direction 1:
    // upstream → client (responses). Either direction's terminal
    // fault tears both, so a request mangled on the way in also kills
    // the response path — the client always notices.
    std::thread downstream([this, relay, conn_index] {
        pump(relay, relay->upstreamFd, relay->clientFd, conn_index, 1);
    });
    pump(relay, relay->clientFd, relay->upstreamFd, conn_index, 0);
    relay->tear();
    downstream.join();
    // Under mutex_: stop() tears every relay it knows about, and must
    // see either the live fds or -1 — never an fd number this thread
    // already closed and the process may have reused.
    std::lock_guard<std::mutex> lock(mutex_);
    ::close(relay->clientFd);
    ::close(relay->upstreamFd);
    relay->clientFd = relay->upstreamFd = -1;
}

void
ChaosProxy::pump(const std::shared_ptr<Relay> &relay, int from, int to,
                 uint64_t conn_index, int direction)
{
    // Deterministic schedule: the stream of rolls depends only on
    // (seed, connection ordinal, direction) and how many chunks have
    // flowed — not on wall-clock timing or thread interleaving.
    std::mt19937_64 rng(plan_.seed * 0x9E3779B97F4A7C15ULL ^
                        (conn_index * 2 + 1 +
                         static_cast<uint64_t>(direction)));
    const auto roll = [&](unsigned per_mille) {
        return per_mille > 0 && rng() % 1000 < per_mille;
    };
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(from, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            relay->tear();
            return;
        }
        const size_t len = static_cast<size_t>(n);
        if (roll(plan_.dropPerMille)) {
            drops_.fetch_add(1, std::memory_order_relaxed);
            relay->tear();
            return;
        }
        if (roll(plan_.garbagePerMille)) {
            garbage_.fetch_add(1, std::memory_order_relaxed);
            char junk[64];
            for (char &c : junk)
                c = static_cast<char>(rng() & 0xff);
            sendAll(to, junk, sizeof(junk));
            relay->tear();
            return;
        }
        if (roll(plan_.truncatePerMille)) {
            truncates_.fetch_add(1, std::memory_order_relaxed);
            // Strict prefix: at least one byte short of the chunk.
            const size_t keep = len > 1 ? rng() % (len - 1) + 1 : 0;
            if (keep > 0)
                sendAll(to, buf, keep);
            relay->tear();
            return;
        }
        if (roll(plan_.delayPerMille)) {
            delays_.fetch_add(1, std::memory_order_relaxed);
            const uint64_t ms =
                plan_.delayMaxMs > 0 ? rng() % plan_.delayMaxMs + 1 : 0;
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        } else if (roll(plan_.splitPerMille) && len > 1) {
            splits_.fetch_add(1, std::memory_order_relaxed);
            const size_t cut = rng() % (len - 1) + 1;
            if (!sendAll(to, buf, cut)) {
                relay->tear();
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            if (!sendAll(to, buf + cut, len - cut)) {
                relay->tear();
                return;
            }
            continue;
        }
        if (!sendAll(to, buf, len)) {
            relay->tear();
            return;
        }
    }
}

ChaosCounters
ChaosProxy::counters()
{
    ChaosCounters c;
    c.connections = connections_.load(std::memory_order_relaxed);
    c.delays = delays_.load(std::memory_order_relaxed);
    c.splits = splits_.load(std::memory_order_relaxed);
    c.drops = drops_.load(std::memory_order_relaxed);
    c.truncates = truncates_.load(std::memory_order_relaxed);
    c.garbage = garbage_.load(std::memory_order_relaxed);
    return c;
}

} // namespace mtfpu::service
