/**
 * @file
 * Wire layer of the simulation service (DESIGN.md §11, §13): stream
 * sockets carrying newline-delimited JSON — one request object per
 * line in, one response object per line out. The framing is
 * deliberately the simplest thing that composes with the codebase's
 * existing artifact discipline: the same json::parse that reads
 * campaign journals reads requests, a torn line fails cleanly, and
 * every message is greppable in a socket capture.
 *
 * Two transports share the framing: Unix-domain sockets for
 * cooperating local clients, and TCP for genuinely remote ones
 * (DESIGN.md §13). An endpoint address is either a filesystem path
 * (Unix socket) or "tcp:HOST:PORT"; connectEndpoint() dispatches.
 *
 * Every response carries "ok": true/false; failures add "error" (and
 * "error_code" when a structured SimError caused them). Protocol
 * errors never kill the connection — the server answers with an error
 * response and keeps reading.
 *
 * A job result crosses both hops — worker to pool, daemon to client —
 * as the same fields, written by writeJobResult() and read by
 * readJobResult(); RunStats travel as "stats_hex", the hex of their
 * saveState() blob, so a decoded result is bit-identical to the run,
 * and a failure's error record as one "job_error" object.
 *
 * Robustness contract (DESIGN.md §12.4, §13.3): SIGPIPE is ignored
 * process-wide the first time any endpoint is created, so a peer that
 * vanishes mid-write surfaces as EPIPE on the write, never as a
 * process-killing signal — the daemon, its workers, and clients all
 * rely on this. Reads and writes retry EINTR, writes loop over
 * partial transfers, and every socket fd is opened close-on-exec so a
 * forked worker process cannot hold a daemon's listener or client
 * connection open past its own exec. Against genuinely hostile or
 * broken remote peers, a LineChannel can additionally bound the line
 * length it will buffer (a peer streaming bytes without a newline
 * cannot grow daemon memory without limit) and bound the wall-clock
 * of a write (a slow-loris reader that stops draining its socket
 * cannot park a connection thread forever).
 */

#ifndef MTFPU_SERVICE_WIRE_HH
#define MTFPU_SERVICE_WIRE_HH

#include <cstdint>
#include <string>

#include "common/json.hh"
#include "machine/sim_job.hh"

namespace mtfpu::service
{

/**
 * Ignore SIGPIPE for the whole process (idempotent). Called by
 * listenUnix/connectUnix and by the worker main; exposed so embedders
 * that hand raw fds to LineChannel can get the same guarantee.
 */
void ignoreSigpipe();

/**
 * Create, bind, and listen on a Unix-domain stream socket at @p path.
 * A stale socket file from a dead daemon is unlinked first (a live
 * daemon holds its listener open, so binding over it would fail with
 * EADDRINUSE before the unlink could race anything living). Throws
 * SimError(ErrCode::Io) on any syscall failure; the path length is
 * checked against sockaddr_un limits. The fd is close-on-exec.
 */
int listenUnix(const std::string &path, int backlog = 16);

/** Connect to a listening Unix socket; throws SimError(Io) on failure.
 *  The fd is close-on-exec. */
int connectUnix(const std::string &path);

/**
 * Create, bind, and listen on a TCP socket at @p hostport
 * ("HOST:PORT"; port 0 picks an ephemeral port). SO_REUSEADDR is set
 * so a restarted daemon rebinds through TIME_WAIT. When
 * @p bound_port is non-null it receives the actual port (the way
 * tests and tools discover an ephemeral bind). Throws SimError(Io).
 */
int listenTcp(const std::string &hostport, int backlog = 16,
              uint16_t *bound_port = nullptr);

/** Connect to "HOST:PORT" over TCP (TCP_NODELAY set — the protocol
 *  is small request/response lines). Throws SimError(Io). */
int connectTcp(const std::string &hostport);

/**
 * Connect to an endpoint address: "tcp:HOST:PORT" dials TCP, anything
 * else is a Unix socket path. The daemon listens on both transports
 * at once; clients pick with this one string.
 */
int connectEndpoint(const std::string &address);

/** Split "HOST:PORT" (the split is at the last ':', so bracketless
 *  IPv6 literals still fail loudly rather than silently misparse).
 *  Throws SimError(BadOperand) on a missing or non-numeric port. */
void parseHostPort(const std::string &hostport, std::string &host,
                   uint16_t &port);

/**
 * Line-oriented channel over a connected fd. Reading buffers until
 * '\n'; writing appends one. The channel owns the fd and closes it on
 * destruction. Not thread-safe — one channel per connection thread.
 */
class LineChannel
{
  public:
    /** Outcome of a timed read. */
    enum class ReadStatus : uint8_t
    {
        Line,     // a complete line was returned
        Eof,      // peer closed cleanly (any buffered fragment is torn)
        Error,    // read failed; lastErrno() has the reason
        Timeout,  // no complete line within the given window
        Overflow, // line exceeded the configured max length
    };

    explicit LineChannel(int fd) : fd_(fd) {}
    ~LineChannel();

    LineChannel(const LineChannel &) = delete;
    LineChannel &operator=(const LineChannel &) = delete;

    /**
     * Bound the bytes buffered while hunting for '\n'; 0 (default)
     * means unbounded. A peer that exceeds it gets
     * ReadStatus::Overflow and the channel is poisoned — the only
     * sane continuation is an error response and a disconnect, which
     * is exactly what the server does (DESIGN.md §13.3).
     */
    void setMaxLineBytes(size_t max) { maxLineBytes_ = max; }

    /** Bound the wall-clock of one writeLine(); <0 (default) means
     *  unbounded. A timed-out write fails with lastErrno ETIMEDOUT. */
    void setWriteTimeout(int timeout_ms) { writeTimeoutMs_ = timeout_ms; }

    /**
     * Read one newline-terminated line (the newline is stripped).
     * Returns false on EOF or a read error; a final unterminated
     * fragment at EOF is discarded — a torn request is no request,
     * the same rule journals apply to torn trailing lines. Use
     * lastErrno() to distinguish a clean EOF (0) from an error.
     */
    bool readLine(std::string &line);

    /**
     * readLine with a wall-clock budget: polls the fd so a peer that
     * stops talking (a hung worker, a stalled client) is detected
     * instead of blocking forever. @p timeout_ms < 0 means no limit.
     */
    ReadStatus readLineTimed(std::string &line, int timeout_ms);

    /**
     * Write @p line plus '\n'; retries EINTR and partial writes.
     * Returns false on failure (peer gone → EPIPE/ECONNRESET in
     * lastErrno(), never a SIGPIPE kill — see ignoreSigpipe()).
     */
    bool writeLine(const std::string &line);

    /** Throwing variant: SimError(ErrCode::Io) instead of false, so a
     *  peer disconnect surfaces structurally instead of dropping. */
    void writeLineOrThrow(const std::string &line, const char *who);

    /** errno of the last failed read/write; 0 after clean EOF. */
    int lastErrno() const { return lastErrno_; }

    int fd() const { return fd_; }

  private:
    int fd_;
    int lastErrno_ = 0;
    size_t maxLineBytes_ = 0;
    int writeTimeoutMs_ = -1;
    std::string buf_; // bytes read past the last returned line
};

/** Build the standard error response line. */
std::string errorResponse(const std::string &message,
                          const std::string &error_code = "");

/** RunStats <-> wire encoding (saveState blob as hex). statsFromHex
 *  throws SimError on a malformed or truncated blob. */
std::string statsToHex(const machine::RunStats &stats);
machine::RunStats statsFromHex(const std::string &hex);

/**
 * Write the fields of a job result into the object @p w has open:
 * name, job_ok, status, cycles, attempts, quarantined, from_cache,
 * job_error when the job failed (its error record as
 * SimError::to_json() renders it: code, message, cycle, pc, instr),
 * and stats_hex when the stats are meaningful (a success or a guard
 * stop).
 */
void writeJobResult(json::Writer &w, const machine::SimJobResult &result);

/** Decode the fields writeJobResult() wrote; the status follows the
 *  decoded stats. Throws SimError on a missing or mistyped field. */
machine::SimJobResult readJobResult(const json::Value &v);

} // namespace mtfpu::service

#endif // MTFPU_SERVICE_WIRE_HH
