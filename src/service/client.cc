#include "service/client.hh"

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include <unistd.h>

#include "common/log.hh"
#include "service/server.hh" // kProtoRevision

namespace mtfpu::service
{

namespace
{

using clock_t_ = std::chrono::steady_clock;

/**
 * Connect with capped exponential backoff inside @p timeout_ms. The
 * daemon may still be binding its socket (races at startup) or be
 * mid-restart; both surface as connect() failures worth riding out.
 */
int
connectRetry(const std::string &address, uint64_t timeout_ms)
{
    const clock_t_::time_point deadline =
        clock_t_::now() + std::chrono::milliseconds(timeout_ms);
    uint64_t backoff = 50;
    for (;;) {
        try {
            return connectEndpoint(address);
        } catch (const SimError &) {
            if (clock_t_::now() >= deadline)
                throw;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        backoff = std::min<uint64_t>(backoff * 2, 1000);
    }
}

/** Requests are small objects; build them with the shared writer. */
std::string
simpleRequest(const char *cmd,
              const std::function<void(json::Writer &)> &fill = nullptr)
{
    json::Writer w;
    w.beginObject();
    w.key("cmd").value(cmd);
    if (fill)
        fill(w);
    w.endObject();
    return w.str();
}

} // anonymous namespace

SimClient::SimClient(const std::string &address,
                     uint64_t connect_timeout_ms)
    : address_(address), connectTimeoutMs_(connect_timeout_ms)
{
    connect(connectTimeoutMs_);
}

void
SimClient::connect(uint64_t timeout_ms)
{
    channel_ = std::make_unique<LineChannel>(
        timeout_ms > 0 ? connectRetry(address_, timeout_ms)
                       : connectEndpoint(address_));
    // The hello handshake, an exact revision check: a daemon of
    // another revision answers with a structured "unsupported-proto"
    // error, which request() throws as SimError(Io).
    request(simpleRequest("hello", [](json::Writer &w) {
        w.key("proto").value(kProtoRevision);
        w.key("client").value("mtfpu-client");
    }));
}

void
SimClient::reconnect()
{
    channel_.reset();
    // Always allow a short dial window on redial: the reconnect path
    // exists to ride out transient faults, and a zero-budget redial
    // would turn every momentary hiccup into a hard failure.
    connect(std::max<uint64_t>(connectTimeoutMs_, 1000));
}

json::Value
SimClient::request(const std::string &request_line)
{
    lastTransportError_ = true; // until a well-formed response lands
    if (!channel_ || !channel_->writeLine(request_line))
        fatal(ErrCode::Io, "service client: connection lost on write");
    std::string line;
    if (!channel_->readLine(line))
        fatal(ErrCode::Io, "service client: connection lost on read");
    json::Value response = json::parse(line);
    if (!response.isObject() || !response.has("ok"))
        fatal(ErrCode::Io, "service client: malformed response");
    lastTransportError_ = false;
    if (!response.at("ok").asBool()) {
        const std::string message = response.has("error")
                                        ? response.at("error").asString()
                                        : "unspecified daemon error";
        // Reconstruct the daemon's taxonomy entry so callers can
        // branch on code — Busy drives the submitRetry backoff loop.
        const ErrCode code =
            response.has("error_code")
                ? findEnum<ErrCode>(response.at("error_code").asString())
                      .value_or(ErrCode::Unknown)
                : ErrCode::Io;
        retryAfterMs_ = response.has("retry_after_ms")
                            ? response.at("retry_after_ms").asUint()
                            : 0;
        fatal(code == ErrCode::Unknown ? ErrCode::Io : code,
              "daemon: " + message);
    }
    return response;
}

bool
SimClient::ping()
{
    return request(simpleRequest("ping")).has("version");
}

std::string
SimClient::makeIdemKey()
{
    // Uniqueness, not secrecy: pid + one random_device draw per
    // process + a counter can only collide across processes that drew
    // the same 64-bit nonce, and the journal scopes keys per daemon.
    static const uint64_t nonce = [] {
        std::random_device rd;
        return (static_cast<uint64_t>(rd()) << 32) ^ rd();
    }();
    static std::atomic<uint64_t> counter{0};
    char buf[64];
    snprintf(buf, sizeof(buf), "c%d-%016llx-%llu",
             static_cast<int>(getpid()),
             static_cast<unsigned long long>(nonce),
             static_cast<unsigned long long>(
                 counter.fetch_add(1, std::memory_order_relaxed)));
    return buf;
}

uint64_t
SimClient::submit(const JobSpec &spec, const std::string &idem_key,
                  uint64_t deadline_ms)
{
    const std::string spec_json = spec.to_json();
    const json::Value response =
        request(simpleRequest("submit", [&](json::Writer &w) {
            w.key("spec").raw(spec_json);
            if (!idem_key.empty())
                w.key("idem_key").value(idem_key);
            if (deadline_ms > 0)
                w.key("deadline_ms").value(deadline_ms);
        }));
    return response.at("id").asUint();
}

std::string
SimClient::status(uint64_t id)
{
    const json::Value response =
        request(simpleRequest("status", [&](json::Writer &w) {
            w.key("id").value(id);
        }));
    return response.at("state").asString();
}

machine::SimJobResult
SimClient::decodeResult(const json::Value &response)
{
    if (response.at("state").asString() != "done")
        return machine::SimJobResult{}; // pending / cancelled: not ok
    return readJobResult(response);
}

machine::SimJobResult
SimClient::result(uint64_t id, bool wait)
{
    const json::Value response =
        request(simpleRequest("result", [&](json::Writer &w) {
            w.key("id").value(id);
            w.key("wait").value(wait);
        }));
    return decodeResult(response);
}

uint64_t
SimClient::submitRetry(const JobSpec &spec, uint64_t timeout_ms,
                       uint64_t deadline_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    // One key for the whole loop: every resubmit below — whether
    // after a Busy rejection or a torn connection — is a replay of
    // the same logical job, and the daemon dedupes it to one
    // execution even if an earlier attempt's response was lost.
    const std::string idem_key = makeIdemKey();
    uint64_t backoff = 50;
    for (;;) {
        try {
            return submit(spec, idem_key, deadline_ms);
        } catch (const SimError &err) {
            const bool expired =
                std::chrono::steady_clock::now() >= deadline;
            if (lastTransportError_ && !expired) {
                reconnect(); // throws if the daemon stays unreachable
            } else if (err.code() != ErrCode::Busy || expired) {
                throw;
            }
        }
        // Prefer the daemon's own hint: it scales with the backlog
        // and staggers the retry wave across rejected clients.
        const uint64_t wait =
            retryAfterMs_ > 0 ? retryAfterMs_ : backoff;
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
        backoff = std::min<uint64_t>(backoff * 2, 2000);
    }
}

machine::SimJobResult
SimClient::resultWait(uint64_t id, uint64_t timeout_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
            fatal(ErrCode::Io, "timed out after " +
                                   std::to_string(timeout_ms) +
                                   "ms waiting for job " +
                                   std::to_string(id));
        }
        const uint64_t remaining = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - now)
                .count());
        try {
            // Block server-side in bounded windows: the daemon parks
            // the connection on its result condvar until the job
            // finishes. Bounded so a daemon that wedges can't hold us
            // past our budget.
            const uint64_t window = std::min<uint64_t>(
                std::max<uint64_t>(remaining, 1), 2000);
            const json::Value response =
                request(simpleRequest("result", [&](json::Writer &w) {
                    w.key("id").value(id);
                    w.key("wait_ms").value(window);
                }));
            const std::string state = response.at("state").asString();
            if (state == "done" || state == "cancelled")
                return decodeResult(response);
        } catch (const SimError &) {
            // Result fetches are read-only, so a redial-and-reissue
            // is always safe. Anything other than a torn connection
            // (e.g. unknown-id) propagates.
            if (!lastTransportError_)
                throw;
            reconnect();
        }
    }
}

bool
SimClient::drain(bool on)
{
    const json::Value response =
        request(simpleRequest("drain", [&](json::Writer &w) {
            w.key("on").value(on);
        }));
    return response.at("draining").asBool();
}

bool
SimClient::cancel(uint64_t id)
{
    const json::Value response =
        request(simpleRequest("cancel", [&](json::Writer &w) {
            w.key("id").value(id);
        }));
    return response.at("cancelled").asBool();
}

void
SimClient::shutdown()
{
    request(simpleRequest("shutdown"));
}

SimClient::CacheStats
SimClient::cacheStats()
{
    const json::Value response = request(simpleRequest("cache-stats"));
    CacheStats stats;
    stats.enabled = response.at("enabled").asBool();
    if (!stats.enabled)
        return stats;
    stats.hits = response.at("hits").asUint();
    stats.misses = response.at("misses").asUint();
    stats.stores = response.at("stores").asUint();
    stats.diskEntries = response.at("disk_entries").asUint();
    stats.diskBytes = response.at("disk_bytes").asUint();
    return stats;
}

uint64_t
SimClient::cacheClear()
{
    return request(simpleRequest("cache-clear")).at("removed").asUint();
}

SimClient::Health
SimClient::health()
{
    const json::Value response = request(simpleRequest("health"));
    Health h;
    h.uptimeMs = response.at("uptime_ms").asUint();
    h.draining = response.at("draining").asBool();
    h.connections = response.at("connections").asUint();
    h.queued = response.at("queued").asUint();
    h.running = response.at("running").asUint();
    h.done = response.at("done").asUint();
    h.cancelled = response.at("cancelled").asUint();
    h.deadlineShed = response.at("deadline_shed").asUint();
    h.poolSlots = response.at("pool_slots").asUint();
    h.poolBusy = response.at("pool_busy").asUint();
    h.workerCrashes = response.at("worker_crashes").asUint();
    h.workerRespawns = response.at("worker_respawns").asUint();
    h.cacheEnabled = response.at("cache_enabled").asBool();
    if (h.cacheEnabled) {
        h.cacheHits = response.at("cache_hits").asUint();
        h.cacheMisses = response.at("cache_misses").asUint();
        h.cacheHitRate = response.at("cache_hit_rate").asNumber();
    }
    return h;
}

} // namespace mtfpu::service
