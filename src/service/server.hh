/**
 * @file
 * The simulation daemon (DESIGN.md §11). SimServer listens on a
 * Unix-domain socket, accepts newline-delimited-JSON requests, and
 * queues submitted JobSpecs for its worker threads, in front of the
 * shared on-disk ResultCache — so a sweep submitted twice (or
 * resubmitted after a daemon restart) is served warm without
 * simulating. The daemon never simulates itself: a dispatch thread
 * hands each cache miss to WorkerPool::execute, which runs it in a
 * supervised mtfpu-workerd process under the one containment policy
 * (worker_pool.hh) — a deterministic job that fails twice is
 * quarantined with a crash report, and the rest of the queue keeps
 * draining.
 *
 * Protocol (one JSON object per line; every request carries "cmd",
 * every response carries "ok"):
 *
 *   cmd            request fields        response fields
 *   ----------     -------------------   ------------------------------
 *   hello          proto [, client]      proto, server, max_line_bytes,
 *                                        ... limits
 *   ping                                 version
 *   health                               uptime/queue/pool/cache census
 *   submit         spec [, idem_key,     id, duplicate (idempotent
 *                  deadline_ms]          replay)
 *   status         id                    one job's state and name
 *   result         id [, wait, wait_ms]  state, stats summary, stats_hex
 *   cancel         id                    cancelled
 *   drain          [on]                  draining
 *   shutdown                             (server stops after replying)
 *   cache-stats                          hits/misses/stores + disk census
 *   cache-clear                          removed count
 *
 * Remote hardening (DESIGN.md §13): the daemon can additionally
 * listen on TCP (ServerConfig::listenAddr) for genuinely remote
 * clients; both transports carry the same protocol. A client opens
 * each connection with "hello", an exact check of the one protocol
 * revision (kProtoRevision): any other number gets a structured
 * "unsupported-proto" error and the connection stays open. The
 * server keeps no per-connection protocol state, so a peer that
 * never says hello is served the same protocol. Submission is
 * idempotent end-to-end: a client-generated "idem_key" dedupes
 * retried submits against live jobs and the journal, so a retry after
 * a dropped response returns the original job id instead of
 * double-executing. A client "deadline_ms" rides the queue with the
 * job; work whose deadline lapses before a worker frees is shed with
 * a Busy-coded result rather than simulated into a void. Client time
 * budgets (deadline_ms, wait_ms) above kMaxClientMs are refused as
 * bad-operand. The wire itself is bounded: max request-line length
 * (oversize → structured Io error + disconnect), per-connection idle
 * reaping, a write deadline against slow-loris readers, and a
 * max-connections cap.
 *
 * Admission control (DESIGN.md §12.3): a submit the daemon will not
 * take — queue full, per-client in-flight cap hit, or drain mode —
 * is answered with {"ok":false,"error_code":"busy","reason":...,
 * "retry_after_ms":N}; clients back off and resubmit. With a journal
 * configured, accepted jobs survive a daemon SIGKILL: the restart
 * re-queues everything not marked done.
 *
 * RunStats crosses the wire as "stats_hex": the hex encoding of the
 * stats saveState() blob. A summary (cycles, status, mflops inputs)
 * rides alongside for humans, but the blob is the contract — clients
 * reconstruct bit-identical RunStats, which is what the cross-process
 * determinism test asserts.
 */

#ifndef MTFPU_SERVICE_SERVER_HH
#define MTFPU_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "machine/result_cache.hh"
#include "service/job_spec.hh"
#include "service/supervisor.hh"
#include "service/wire.hh" // statsToHex, the job-result codec
#include "service/worker_pool.hh"

namespace mtfpu::service
{

/**
 * The protocol revision (DESIGN.md §13.2). The client and the daemon
 * ship together, so a daemon speaks exactly this revision: hello with
 * any other number is refused with a structured "unsupported-proto"
 * error. An incompatible wire change bumps it.
 */
constexpr uint64_t kProtoRevision = 3;

/** The largest client time budget, in milliseconds, the daemon takes
 *  for deadline_ms or wait_ms: one year. Anything larger is refused
 *  as bad-operand before it reaches the steady clock, where adding it
 *  to now() could overflow. */
constexpr uint64_t kMaxClientMs = 365ull * 24 * 3600 * 1000;

struct ServerConfig
{
    /** Socket path; a stale socket file is replaced on startup.
     *  Empty disables the Unix listener (TCP-only daemon). */
    std::string socketPath;

    /** TCP listen address "HOST:PORT" (port 0 = ephemeral; the bound
     *  port is readable from SimServer::tcpPort()). Empty disables
     *  the TCP listener. At least one transport must be configured. */
    std::string listenAddr;

    /** On-disk result cache directory; empty disables persistence.
     *  The daemon takes a DirLock on it so two daemons cannot share
     *  one cache directory by accident. */
    std::string cacheDir;

    /** Crash-safe in-flight job journal; empty disables recovery. */
    std::string journalPath;

    /**
     * The worker pool the daemon runs every job in; it gets one
     * dispatch thread per slot. An empty workerPath means a sibling
     * of the daemon binary; the constructor throws a SimError (Io)
     * when neither exists.
     */
    WorkerPoolConfig pool;

    /** Admission control: max queued (not yet running) jobs; 0 = no
     *  bound. Exceeding it answers submit with a Busy response. */
    size_t maxQueue = 0;

    /** Max queued+running jobs per client connection; 0 = no bound. */
    size_t maxInflightPerClient = 0;

    /** Wire hardening (DESIGN.md §13.3). Max request-line length a
     *  connection may send before it is answered with a structured Io
     *  error and disconnected; 0 = unbounded. The default covers the
     *  largest legitimate spec (memInit images) with a wide margin. */
    size_t maxLineBytes = 4 * 1024 * 1024;

    /** Idle reaping: a connection silent this long is closed; 0 = no
     *  reaping (local trusted clients). Long-poll result waits count
     *  as activity — the connection thread is in the handler, not in
     *  the idle read. */
    uint64_t idleTimeoutMs = 0;

    /** Per-response write deadline against slow-loris readers that
     *  stop draining their socket; 0 = unbounded. */
    uint64_t writeTimeoutMs = 30000;

    /** Max simultaneous client connections; 0 = unbounded. Excess
     *  connections get one Busy line and are closed. */
    size_t maxConns = 0;
};

/** Lifecycle state of a submitted job. */
enum class JobState : uint8_t
{
    Queued,
    Running,
    Done,
    Cancelled,
};

const char *jobStateName(JobState state);

/** The daemon. start() spawns the accept loop; serve() joins it. */
class SimServer
{
  public:
    /** Throws SimError: BadOperand without a transport, Io when no
     *  mtfpu-workerd binary can be found. */
    explicit SimServer(ServerConfig config);
    ~SimServer();

    SimServer(const SimServer &) = delete;
    SimServer &operator=(const SimServer &) = delete;

    /** Bind the socket and spawn accept + worker threads. */
    void start();

    /** Block until shutdown (a 'shutdown' command or stop()). */
    void serve();

    /** Request shutdown from another thread; idempotent. */
    void stop();

    const ServerConfig &config() const { return config_; }

    /** The shared cache, for tests; nullptr when persistence is off. */
    machine::ResultCache *cache() { return cache_.get(); }

    /** The worker pool, for tests. */
    WorkerPool *pool() { return pool_.get(); }

    /** Bound TCP port after start(); 0 when no TCP listener. The way
     *  tests and tools discover an ephemeral ":0" bind. */
    uint16_t tcpPort() const { return tcpPort_; }

  private:
    struct Job
    {
        /** What running the job takes: the resolved SimJob and its
         *  wire form (for the journal and the pool). */
        struct Work
        {
            machine::SimJob job;
            std::string specJson;
        };

        uint64_t id = 0;
        JobState state = JobState::Queued;
        std::string name; // for status and the shed result
        /** Set while queued: the dispatch thread takes it, and a job
         *  cancelled or shed in the queue drops it, so a finished job
         *  keeps only its result. */
        std::optional<Work> work;
        /** Client idempotency key; empty = none. Indexed by
         *  idemIndex_ so a retried submit replays the original id. */
        std::string idemKey;
        /** Absolute point the client stops caring (steady clock);
         *  unset when the submit carried no deadline_ms. A queued job
         *  whose deadline lapses is shed, not simulated. */
        std::optional<std::chrono::steady_clock::time_point> deadline;
        /** Submitting connection for the in-flight cap. A monotonic
         *  id, not the fd: fds are recycled, and a new client must
         *  not inherit a closed client's jobs toward its cap. 0 =
         *  internal/unattributed (e.g. journal recovery). */
        uint64_t clientId = 0;
        /** Cooperative cancel for a running job: the pool polls it
         *  and kills the worker. Heap-allocated so the address stays
         *  stable while jobs_ rebalances. */
        std::shared_ptr<std::atomic<bool>> cancel;
        machine::SimJobResult result;
    };

    /** One connection's thread; done is set (under mutex_) as the
     *  thread leaves handleConnection, so the accept loop can join
     *  it while the daemon runs. The thread holds &done, so a
     *  Connection never moves (std::list nodes stay put). */
    struct Connection
    {
        Connection() = default;
        Connection(const Connection &) = delete;
        Connection &operator=(const Connection &) = delete;

        std::thread thread;
        bool done = false;
    };

    void acceptLoop();
    void workerLoop();
    void handleConnection(int fd, bool &done);

    /** Join the threads of connections that have finished. */
    void reapConnections();

    /** Run one job: a result-cache hit, or the pool (and a cache
     *  store of a deterministic outcome); only a pure job
     *  (machine::isPureJob) touches the cache. An aborted outcome is
     *  a shutdown kill: the job is left in the journal so the next
     *  daemon re-runs it. */
    PoolOutcome runPooled(const machine::SimJob &job,
                          const std::string &spec_json,
                          std::atomic<bool> *cancel);

    /** Re-queue journaled jobs that were in flight at the last exit. */
    void recoverJournal();

    /** Dispatch one request line; returns the response line.
     *  @p client_id identifies the connection for the per-client
     *  in-flight cap. @p shutdown_requested is set when the request
     *  was a shutdown, which the connection acts on once the reply is
     *  on the wire. */
    std::string handleRequest(const std::string &line, uint64_t client_id,
                              bool &shutdown_requested);

    std::string cmdHello(const json::Value &req);
    std::string cmdPing();
    std::string cmdHealth();
    std::string cmdSubmit(const json::Value &req, uint64_t client_id);
    std::string cmdStatus(const json::Value &req);
    std::string cmdResult(const json::Value &req);
    std::string cmdCancel(const json::Value &req);
    std::string cmdDrain(const json::Value &req);
    std::string cmdCacheStats();
    std::string cmdCacheClear();

    ServerConfig config_;
    std::unique_ptr<machine::ResultCache> cache_;
    std::optional<machine::DirLock> cacheLock_;
    std::unique_ptr<WorkerPool> pool_;
    std::unique_ptr<JobJournal> journal_;
    bool draining_ = false; // guarded by mutex_

    int listenFd_ = -1;    // Unix listener; -1 when disabled
    int tcpListenFd_ = -1; // TCP listener; -1 when disabled
    uint16_t tcpPort_ = 0;
    std::chrono::steady_clock::time_point startTime_{};
    std::thread acceptThread_;
    std::vector<std::thread> workers_;
    std::list<Connection> connections_; // guarded by mutex_
    std::vector<int> connFds_; // live connections, for stop() wakeups

    std::mutex mutex_; // guards jobs_, queue_, stopping_, connections_
    std::condition_variable queueCv_;  // workers wait for jobs
    std::condition_variable resultCv_; // result-waiters wait for Done
    std::map<uint64_t, Job> jobs_;
    std::deque<uint64_t> queue_;
    /** Idempotency index: client key → job id (guarded by mutex_).
     *  Rebuilt from the journal on recovery; entries live as long as
     *  the job does, so a retry always replays, never re-executes. */
    std::map<std::string, uint64_t> idemIndex_;
    uint64_t deadlineShed_ = 0; // jobs shed past deadline (mutex_)
    uint64_t nextJobId_ = 1;
    uint64_t nextConnId_ = 1; // guarded by mutex_
    bool stopping_ = false;
};

} // namespace mtfpu::service

#endif // MTFPU_SERVICE_SERVER_HH
