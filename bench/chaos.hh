/**
 * @file
 * Deterministic TCP fault-injection proxy (DESIGN.md §13.6). Sits
 * between a SimClient and a SimServer and mangles the byte stream the
 * way real networks and dying peers do: added latency, writes split
 * at arbitrary byte boundaries, forwarded prefixes (truncation),
 * injected garbage, and mid-flight disconnects.
 *
 * Every fault decision is drawn from a per-(connection, direction)
 * mt19937_64 seeded from ChaosPlan::seed and the connection ordinal —
 * the same seed against the same client behavior replays the same
 * fault schedule, which is what lets CI assert "sweep through chaos
 * completes bit-identical" instead of "usually works".
 *
 * Design rule: the corrupting faults (garbage, truncate) always tear
 * the connection down after injecting. A proxy that corrupted bytes
 * and kept relaying would silently desynchronize the request/response
 * pairing — the client would read a response belonging to a different
 * request and misattribute it. Tearing the connection turns every
 * corruption into a visible transport error the client recovers from
 * by redialing and replaying idempotently (client.hh).
 *
 * A test instrument, not part of the service library: only
 * bench/chaos_proxy and the wire tests link it (target mtfpu_chaos).
 */

#ifndef MTFPU_BENCH_CHAOS_HH
#define MTFPU_BENCH_CHAOS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mtfpu::service
{

/**
 * Fault schedule knobs. Each probability is per-mille (0..1000) and
 * is rolled once per relayed chunk, in the order: drop, garbage,
 * truncate, delay, split — at most one fault fires per chunk, and the
 * first three end the connection.
 */
struct ChaosPlan
{
    /** Root of every per-connection RNG; same seed = same schedule. */
    uint64_t seed = 1;

    /** Sleep 1..delayMaxMs before forwarding the chunk. */
    unsigned delayPerMille = 0;
    unsigned delayMaxMs = 20;

    /** Forward the chunk in two writes with a short pause between —
     *  the classic torn-line/partial-read case. */
    unsigned splitPerMille = 0;

    /** Disconnect both sides immediately, chunk unforwarded. */
    unsigned dropPerMille = 0;

    /** Forward a strict prefix of the chunk, then disconnect. */
    unsigned truncatePerMille = 0;

    /** Inject random bytes (instead of the chunk), then disconnect. */
    unsigned garbagePerMille = 0;
};

/** Lifetime fault census (for logs and test assertions). */
struct ChaosCounters
{
    uint64_t connections = 0;
    uint64_t delays = 0;
    uint64_t splits = 0;
    uint64_t drops = 0;
    uint64_t truncates = 0;
    uint64_t garbage = 0;

    uint64_t faults() const
    {
        return delays + splits + drops + truncates + garbage;
    }
};

/**
 * The proxy. start() binds the listen address (port 0 = ephemeral,
 * readable from port()) and accepts in a background thread; each
 * accepted connection dials the upstream target and relays both
 * directions through the fault schedule. stop() tears everything
 * down; the destructor stops implicitly.
 */
class ChaosProxy
{
  public:
    /**
     * @p listen_hostport is "HOST:PORT" for the client-facing TCP
     * listener; @p target is any endpoint address connectEndpoint
     * accepts ("tcp:HOST:PORT" or a Unix socket path), so the proxy
     * can front a Unix-only daemon over TCP.
     */
    ChaosProxy(std::string listen_hostport, std::string target,
               ChaosPlan plan);
    ~ChaosProxy();

    ChaosProxy(const ChaosProxy &) = delete;
    ChaosProxy &operator=(const ChaosProxy &) = delete;

    void start();
    void stop();

    /** Bound listen port after start(). */
    uint16_t port() const { return port_; }

    ChaosCounters counters();

  private:
    /** Both fds of one relayed connection; shared by its two pump
     *  threads so either side's fault can tear down the pair. The
     *  fds change only under mutex_, when the owning thread closes
     *  them after joining. */
    struct Relay
    {
        int clientFd = -1;
        int upstreamFd = -1;
        /** Half-close both sockets so both pumps see EOF. Idempotent;
         *  a no-op once the fds are closed. */
        void tear();
    };

    void acceptLoop();
    void runRelay(std::shared_ptr<Relay> relay, uint64_t conn_index);

    /** Relay @p from → @p to until EOF/fault; returns on teardown. */
    void pump(const std::shared_ptr<Relay> &relay, int from, int to,
              uint64_t conn_index, int direction);

    std::string listenHostPort_;
    std::string target_;
    ChaosPlan plan_;

    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::thread acceptThread_;
    std::vector<std::thread> relayThreads_;

    /** Guards relays_, relayThreads_, stopping_ and every Relay's
     *  fds: stop() tears relays while their threads close them. */
    std::mutex mutex_;
    std::vector<std::shared_ptr<Relay>> relays_;
    bool stopping_ = false;

    std::atomic<uint64_t> connections_{0};
    std::atomic<uint64_t> delays_{0};
    std::atomic<uint64_t> splits_{0};
    std::atomic<uint64_t> drops_{0};
    std::atomic<uint64_t> truncates_{0};
    std::atomic<uint64_t> garbage_{0};
};

} // namespace mtfpu::service

#endif // MTFPU_BENCH_CHAOS_HH
