/**
 * @file
 * Thin synchronous client for the simulation daemon. One SimClient
 * owns one connection; every method is a single request/response
 * round trip on that connection (the protocol is strictly
 * half-duplex, so a client is not thread-safe — use one per thread).
 *
 * Addressing: the constructor takes an endpoint address — a Unix
 * socket path, or "tcp:HOST:PORT" for a remote daemon (DESIGN.md
 * §13). On connect the client sends hello with kProtoRevision; a
 * daemon that speaks another revision refuses it, and the constructor
 * throws SimError(Io).
 *
 * Remote hardening: submitRetry() stamps each logical submission with
 * a client-generated idempotency key and reuses it across retries, so
 * a resubmit after a dropped response (connection torn mid-reply, a
 * chaos proxy in the path) returns the original job id instead of
 * double-executing. The retrying entry points (submitRetry,
 * resultWait) transparently redial + re-handshake on transport
 * failures; single-shot methods (submit, cancel, ...) propagate them.
 *
 * Error mapping: a transport failure (daemon gone, torn line) or an
 * "ok": false response throws SimError — with the daemon's own error
 * code when the response carried one — so callers handle daemon
 * errors exactly like local SimError failures. An admission-control
 * rejection surfaces as ErrCode::Busy with the daemon's
 * retry_after_ms hint available from retryAfterMs(); submitRetry()
 * wraps the resubmit loop with capped exponential backoff.
 */

#ifndef MTFPU_SERVICE_CLIENT_HH
#define MTFPU_SERVICE_CLIENT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/json.hh"
#include "machine/sim_job.hh"
#include "service/job_spec.hh"
#include "service/wire.hh"

namespace mtfpu::service
{

class SimClient
{
  public:
    /**
     * Connect to a daemon at @p address (a Unix socket path, or
     * "tcp:HOST:PORT"); throws SimError(Io) on failure. With
     * @p connect_timeout_ms > 0 a refused/missing endpoint is retried
     * with capped exponential backoff (50ms doubling to 1s) until the
     * window closes — the standard way to race a daemon that is still
     * binding its socket, or to ride out a restart. The handshake is
     * performed as part of construction.
     */
    explicit SimClient(const std::string &address,
                       uint64_t connect_timeout_ms = 0);

    /** True when the daemon answers a ping. */
    bool ping();

    /** Drop and redial the connection, re-running the handshake.
     *  Uses the constructor's connect timeout (min 1s). */
    void reconnect();

    /**
     * Submit a spec; returns the daemon's job id. A non-empty
     * @p idem_key makes the submit idempotent: a daemon that already
     * accepted this key replays the original id. @p deadline_ms > 0
     * propagates a delivery budget the daemon sheds work against.
     */
    uint64_t submit(const JobSpec &spec, const std::string &idem_key = "",
                    uint64_t deadline_ms = 0);

    /**
     * submit() with full retry handling: a Busy rejection backs off
     * (the daemon's retry_after_ms hint, else capped exponential) and
     * resubmits; a transport failure redials and resubmits under one
     * idempotency key generated for this call (so the retry is a
     * replay, not a duplicate). Gives up when @p timeout_ms elapses —
     * then the final error propagates.
     */
    uint64_t submitRetry(const JobSpec &spec, uint64_t timeout_ms,
                         uint64_t deadline_ms = 0);

    /**
     * Wait for a result, giving up with SimError(Io) after
     * @p timeout_ms. Long-polls server-side in bounded windows, so the
     * connection never blocks unboundedly server-side, and transport
     * failures redial and resume waiting.
     */
    machine::SimJobResult resultWait(uint64_t id, uint64_t timeout_ms);

    /** retry_after_ms from the last Busy response (0 = none given). */
    uint64_t retryAfterMs() const { return retryAfterMs_; }

    /** Toggle daemon drain mode; returns the resulting state. */
    bool drain(bool on = true);

    /** State name for one job ("queued" / "running" / ...). */
    std::string status(uint64_t id);

    /**
     * Fetch a job's result, blocking on the daemon until it finishes
     * (wait == true) or returning immediately with ok == false and an
     * empty name if it is still pending (wait == false). The returned
     * SimJobResult is reconstructed from the wire blob and is
     * bit-identical to the daemon's local result.
     */
    machine::SimJobResult result(uint64_t id, bool wait = true);

    /** True if the job was queued (now cancelled) or running (its
     *  worker is being killed); false once it has finished. */
    bool cancel(uint64_t id);

    /** Ask the daemon to stop (acknowledged before it exits). */
    void shutdown();

    struct CacheStats
    {
        bool enabled = false;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t stores = 0;
        uint64_t diskEntries = 0;
        uint64_t diskBytes = 0;
    };
    CacheStats cacheStats();

    /** Clear the daemon's result cache; returns entries removed. */
    uint64_t cacheClear();

    /** Readiness probe (DESIGN.md §13.5). */
    struct Health
    {
        uint64_t uptimeMs = 0;
        bool draining = false;
        uint64_t connections = 0;
        uint64_t queued = 0;
        uint64_t running = 0;
        uint64_t done = 0;
        uint64_t cancelled = 0;
        uint64_t deadlineShed = 0;
        uint64_t poolSlots = 0;
        uint64_t poolBusy = 0;
        uint64_t workerCrashes = 0;
        uint64_t workerRespawns = 0;
        bool cacheEnabled = false;
        uint64_t cacheHits = 0;
        uint64_t cacheMisses = 0;
        double cacheHitRate = 0.0;
    };
    Health health();

    /**
     * Raw round trip: send one request object (a complete JSON line),
     * return the parsed response. Throws SimError on transport
     * failure or an error response. The typed methods above are
     * wrappers over this.
     */
    json::Value request(const std::string &request_line);

    /** Generate a fresh idempotency key (unique per process+call). */
    static std::string makeIdemKey();

  private:
    /** Dial address_ (with retry window) and run the handshake. */
    void connect(uint64_t timeout_ms);

    /** Decode a "result" response body into a SimJobResult. */
    static machine::SimJobResult decodeResult(const json::Value &response);

    std::string address_;
    uint64_t connectTimeoutMs_ = 0;
    std::unique_ptr<LineChannel> channel_;
    uint64_t retryAfterMs_ = 0;
    /** The last request() failure was transport-level (connection
     *  torn / malformed bytes), not a clean daemon error response —
     *  the signal that a redial-and-replay is the right recovery. */
    bool lastTransportError_ = false;
};

} // namespace mtfpu::service

#endif // MTFPU_SERVICE_CLIENT_HH
