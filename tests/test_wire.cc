/**
 * @file
 * Remote-transport hardening tests (DESIGN.md §13): TCP listener
 * parity with the Unix socket, the exact-revision hello handshake
 * (acceptance, structured rejection), malformed-frame handling
 * (binary garbage, truncated JSON, torn UTF-8, oversize lines)
 * without leaking connection slots, idle reaping and the
 * max-connections cap, end-to-end idempotent submission (live dedupe
 * and journal-recovered dedupe), client deadline shedding and the cap
 * on client time budgets, long-poll result waits, the health probe,
 * and the seeded chaos proxy — a sweep through injected
 * disconnects/truncation/garbage completes bit-identical to quiet
 * in-process runs with zero duplicate executions.
 *
 * Every daemon runs its jobs in the real mtfpu-workerd binary, whose
 * path comes in as MTFPU_WORKERD_PATH.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench/chaos.hh"
#include "common/log.hh"
#include "common/json.hh"
#include "machine/sim_driver.hh"
#include "service/client.hh"
#include "service/job_spec.hh"
#include "service/server.hh"
#include "service/wire.hh"
#include "test_dir.hh"

namespace
{

using namespace mtfpu;

using test::TestDir;

std::string
countdownAsm(int n)
{
    return "        addi r1, r0, " + std::to_string(n) +
           "\n"
           "loop:   subi r1, r1, 1\n"
           "        bne  r1, r0, loop\n"
           "        nop\n"
           "        halt\n";
}

service::JobSpec
countdownSpec(int n)
{
    service::JobSpec spec;
    spec.name = "count-" + std::to_string(n);
    spec.kind = service::JobKind::Assembly;
    spec.assembly = countdownAsm(n);
    return spec;
}

/** A deliberately slow job: outer×inner countdown iterations (the
 *  addi immediate cannot hold large counts directly). */
service::JobSpec
slowSpec(int outer, int inner)
{
    service::JobSpec spec;
    spec.name = "slow-" + std::to_string(outer) + "x" +
                std::to_string(inner);
    spec.kind = service::JobKind::Assembly;
    spec.assembly = "        addi r1, r0, " + std::to_string(outer) +
                    "\n"
                    "outer:  addi r2, r0, " +
                    std::to_string(inner) +
                    "\n"
                    "inner:  subi r2, r2, 1\n"
                    "        bne  r2, r0, inner\n"
                    "        nop\n" // branch delay slot
                    "        subi r1, r1, 1\n"
                    "        bne  r1, r0, outer\n"
                    "        nop\n"
                    "        halt\n";
    spec.config.maxCycles = 1'000'000'000ull;
    return spec;
}

/** A raw wire connection below SimClient: no handshake, no retry —
 *  for hand-built requests, torn frames, and hostile bytes. */
class RawConn
{
  public:
    explicit RawConn(const std::string &address)
        : channel_(service::connectEndpoint(address))
    {}

    /** Send one line, read one line; fails the test on transport
     *  errors (use writeRaw/readLine directly for tear-down cases). */
    json::Value roundTrip(const std::string &line)
    {
        EXPECT_TRUE(channel_.writeLine(line));
        std::string reply;
        EXPECT_TRUE(channel_.readLine(reply));
        return json::parse(reply);
    }

    service::LineChannel &channel() { return channel_; }

  private:
    service::LineChannel channel_;
};

/** A TCP daemon on an ephemeral port, in this process; its jobs run
 *  in worker processes. */
struct TcpServer
{
    explicit TcpServer(service::ServerConfig config)
        : server(std::move(config))
    {
        server.start();
    }

    std::string address() const
    {
        return "tcp:127.0.0.1:" + std::to_string(server.tcpPort());
    }

    service::SimServer server;
};

/** Jobs the daemon knows in any state, from a health response. */
uint64_t
jobCount(const json::Value &health)
{
    uint64_t n = 0;
    for (const char *state : {"queued", "running", "done", "cancelled"})
        n += health.at(state).asUint();
    return n;
}

service::ServerConfig
tcpConfig()
{
    service::ServerConfig config;
    config.listenAddr = "127.0.0.1:0";
    config.pool.workerPath = MTFPU_WORKERD_PATH;
    config.pool.workers = 2;
    return config;
}

// ------------------------------------------------------- address parsing

TEST(Wire, ParseHostPort)
{
    std::string host;
    uint16_t port = 0;
    service::parseHostPort("127.0.0.1:8080", host, port);
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 8080);

    service::parseHostPort("localhost:0", host, port);
    EXPECT_EQ(host, "localhost");
    EXPECT_EQ(port, 0);

    EXPECT_THROW(service::parseHostPort("no-port", host, port),
                 SimError);
    EXPECT_THROW(service::parseHostPort("host:", host, port), SimError);
    EXPECT_THROW(service::parseHostPort("host:notnum", host, port),
                 SimError);
    EXPECT_THROW(service::parseHostPort("host:70000", host, port),
                 SimError);
    // The port is the whole token after the colon: digits only.
    for (const char *bad : {"host: 80", "host:+80", "host:\t80", "host:-0"}) {
        try {
            service::parseHostPort(bad, host, port);
            ADD_FAILURE() << "'" << bad << "' parsed";
        } catch (const SimError &err) {
            EXPECT_EQ(err.code(), ErrCode::BadOperand) << bad;
        }
    }
}

TEST(Wire, ServerRequiresATransport)
{
    service::ServerConfig config; // neither socketPath nor listenAddr
    EXPECT_THROW(service::SimServer server(config), SimError);

    // A transport but no worker binary: a daemon that could only fail
    // every job refuses to start with a structured Io error.
    TestDir dir("no_worker");
    service::ServerConfig workerless = tcpConfig();
    workerless.pool.workerPath = dir.file("no-such-workerd");
    try {
        service::SimServer server(workerless);
        FAIL() << "expected a missing-worker error";
    } catch (const SimError &err) {
        EXPECT_EQ(err.code(), ErrCode::Io);
        EXPECT_NE(std::string(err.what()).find("no-such-workerd"),
                  std::string::npos)
            << err.what();
    }
}

// ------------------------------------------------------------- transport

TEST(Wire, TcpTransportParityWithUnixSocket)
{
    TestDir dir("tcp_parity");
    service::ServerConfig config = tcpConfig();
    config.socketPath = dir.file("sim.sock");
    TcpServer tcp(config);

    // The same job over both transports, plus a local reference run:
    // all three must agree bit-for-bit.
    const service::JobSpec spec = countdownSpec(500);
    const machine::SimDriver local(1);
    const machine::SimJobResult reference =
        local.runAttempt(spec.resolve());

    service::SimClient unixClient(config.socketPath);
    service::SimClient tcpClient(tcp.address());
    EXPECT_TRUE(tcpClient.ping());

    const machine::SimJobResult viaUnix =
        unixClient.result(unixClient.submit(spec), true);
    const machine::SimJobResult viaTcp =
        tcpClient.result(tcpClient.submit(spec), true);

    EXPECT_TRUE(viaUnix.ok);
    EXPECT_TRUE(viaTcp.ok);
    EXPECT_TRUE(viaUnix.stats == reference.stats);
    EXPECT_TRUE(viaTcp.stats == reference.stats);

    tcpClient.shutdown();
}

// ------------------------------------------------------------- handshake

TEST(Wire, HelloNegotiatesCurrentRevision)
{
    TcpServer tcp(tcpConfig());
    RawConn conn(tcp.address());
    const json::Value reply =
        conn.roundTrip("{\"cmd\":\"hello\",\"proto\":3}");
    ASSERT_TRUE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("proto").asUint(), 3u);
    EXPECT_EQ(reply.at("server").asString(), "mtfpu-simserver");
    EXPECT_TRUE(reply.has("max_line_bytes"));
}

TEST(Wire, HelloRejectsUnsupportedRevisionWithStructuredError)
{
    TcpServer tcp(tcpConfig());
    RawConn conn(tcp.address());
    // Every revision but kProtoRevision is refused: the old revisions
    // 1 and 2 (whose results carry the error as three strings), a
    // future one, and a number that equals 3 only when truncated to
    // 32 bits (2^32 + 3).
    for (const char *proto : {"1", "2", "99", "4294967299"}) {
        SCOPED_TRACE(proto);
        const json::Value reply = conn.roundTrip(
            std::string("{\"cmd\":\"hello\",\"proto\":") + proto + "}");
        ASSERT_FALSE(reply.at("ok").asBool());
        EXPECT_EQ(reply.at("error_code").asString(), "unsupported-proto");
        EXPECT_EQ(reply.at("proto").asUint(), service::kProtoRevision);
    }

    // The connection survives the rejections: the peer may retry an
    // acceptable revision rather than redialing.
    const json::Value retry =
        conn.roundTrip("{\"cmd\":\"hello\",\"proto\":3}");
    EXPECT_TRUE(retry.at("ok").asBool());
}

TEST(Wire, HelloWithoutProtoIsBadOperand)
{
    TcpServer tcp(tcpConfig());
    RawConn conn(tcp.address());
    const json::Value reply = conn.roundTrip("{\"cmd\":\"hello\"}");
    ASSERT_FALSE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("error_code").asString(),
              enumName(ErrCode::BadOperand));
}

TEST(Wire, LegacyPeerWithoutHelloIsServed)
{
    // hello is a check, not a gate: the server keeps no
    // per-connection protocol state, so a peer that skips it is
    // served the same protocol.
    TcpServer tcp(tcpConfig());
    RawConn conn(tcp.address());
    const json::Value pong = conn.roundTrip("{\"cmd\":\"ping\"}");
    EXPECT_TRUE(pong.at("ok").asBool());
    const json::Value sub = conn.roundTrip(
        "{\"cmd\":\"submit\",\"spec\":" + countdownSpec(50).to_json() +
        "}");
    ASSERT_TRUE(sub.at("ok").asBool());
    const json::Value res = conn.roundTrip(
        "{\"cmd\":\"result\",\"id\":" +
        std::to_string(sub.at("id").asUint()) + ",\"wait\":true}");
    EXPECT_TRUE(res.at("ok").asBool());
    EXPECT_EQ(res.at("state").asString(), "done");
}

// ------------------------------------------------------ malformed frames

TEST(Wire, MalformedFramesGetStructuredErrorsWithoutKillingConn)
{
    TcpServer tcp(tcpConfig());
    RawConn conn(tcp.address());

    const char *frames[] = {
        "this is not json",
        "\"just a string\"",
        "{}",                         // object without cmd
        "[1,2,3]",                    // non-object
        "{\"cmd\":\"ping\"",          // truncated JSON
        "{\"cmd\":\xc3\x28\"ping\"}", // torn UTF-8 sequence
        "\x01\x02\x7f\x03garbage",    // binary garbage
        "{\"cmd\":42}",               // cmd of the wrong type
    };
    for (const char *frame : frames) {
        SCOPED_TRACE(frame);
        const json::Value reply = conn.roundTrip(frame);
        ASSERT_TRUE(reply.isObject());
        EXPECT_FALSE(reply.at("ok").asBool());
        EXPECT_TRUE(reply.has("error"));
    }

    // The same connection still serves well-formed requests: no state
    // was poisoned, no slot leaked.
    EXPECT_TRUE(conn.roundTrip("{\"cmd\":\"ping\"}").at("ok").asBool());
}

TEST(Wire, PrematureEofMidRequestFreesTheSlot)
{
    service::ServerConfig config = tcpConfig();
    config.maxConns = 1;
    TcpServer tcp(config);

    {
        // Write half a request (no newline) and hang up.
        const int fd = service::connectEndpoint(tcp.address());
        EXPECT_GT(::send(fd, "{\"cmd\":\"sub", 11, MSG_NOSIGNAL), 0);
        ::close(fd);
    }
    // With maxConns=1, a leaked slot would lock everyone out forever.
    // Brief retry: the server tears the old connection down
    // asynchronously.
    for (int i = 0;; ++i) {
        try {
            RawConn conn(tcp.address());
            const json::Value pong =
                conn.roundTrip("{\"cmd\":\"ping\"}");
            if (pong.at("ok").asBool())
                break;
        } catch (const SimError &) {
        }
        ASSERT_LT(i, 50) << "connection slot leaked after torn EOF";
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

TEST(Wire, OversizeLineIsRejectedAndDisconnected)
{
    service::ServerConfig config = tcpConfig();
    config.maxLineBytes = 1024;
    TcpServer tcp(config);

    RawConn conn(tcp.address());
    const std::string big =
        "{\"cmd\":\"submit\",\"pad\":\"" + std::string(4096, 'x') +
        "\"}";
    const json::Value reply = conn.roundTrip(big);
    ASSERT_FALSE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("error_code").asString(),
              enumName(ErrCode::Io));
    EXPECT_NE(reply.at("error").asString().find("exceeds"),
              std::string::npos);

    // ...and the connection is gone: the buffered remainder cannot be
    // re-framed safely.
    std::string extra;
    EXPECT_FALSE(conn.channel().readLine(extra));

    // A fresh connection works (no slot leaked with the hangup).
    RawConn fresh(tcp.address());
    EXPECT_TRUE(
        fresh.roundTrip("{\"cmd\":\"ping\"}").at("ok").asBool());
}

TEST(Wire, IdleConnectionIsReaped)
{
    service::ServerConfig config = tcpConfig();
    config.idleTimeoutMs = 150;
    TcpServer tcp(config);

    RawConn conn(tcp.address());
    // Say nothing; the server should notice and hang up with a
    // structured notice.
    std::string line;
    ASSERT_TRUE(conn.channel().readLine(line));
    const json::Value notice = json::parse(line);
    EXPECT_FALSE(notice.at("ok").asBool());
    EXPECT_NE(notice.at("error").asString().find("idle"),
              std::string::npos);
    EXPECT_FALSE(conn.channel().readLine(line)); // EOF after notice
}

TEST(Wire, MaxConnectionsCapAnswersBusyAndRecovers)
{
    service::ServerConfig config = tcpConfig();
    config.maxConns = 1;
    TcpServer tcp(config);

    auto holder =
        std::make_unique<RawConn>(tcp.address()); // occupies the slot
    EXPECT_TRUE(
        holder->roundTrip("{\"cmd\":\"ping\"}").at("ok").asBool());

    {
        // Second connection: one Busy line, then EOF.
        service::LineChannel reject(
            service::connectEndpoint(tcp.address()));
        std::string line;
        ASSERT_TRUE(reject.readLine(line));
        const json::Value busy = json::parse(line);
        EXPECT_FALSE(busy.at("ok").asBool());
        EXPECT_EQ(busy.at("error_code").asString(),
                  enumName(ErrCode::Busy));
        EXPECT_FALSE(reject.readLine(line));
    }

    holder.reset(); // release the slot
    for (int i = 0;; ++i) {
        try {
            RawConn conn(tcp.address());
            const json::Value pong =
                conn.roundTrip("{\"cmd\":\"ping\"}");
            if (pong.at("ok").asBool())
                break;
        } catch (const SimError &) {
        }
        ASSERT_LT(i, 50) << "slot not released after disconnect";
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

// ----------------------------------------------------------- idempotency

TEST(Wire, DuplicateIdemKeyReplaysOriginalJobWithoutReExecuting)
{
    TcpServer tcp(tcpConfig());
    RawConn conn(tcp.address());

    const std::string submit =
        "{\"cmd\":\"submit\",\"spec\":" + countdownSpec(60).to_json() +
        ",\"idem_key\":\"test-key-1\"}";
    const json::Value first = conn.roundTrip(submit);
    ASSERT_TRUE(first.at("ok").asBool());
    EXPECT_FALSE(first.at("duplicate").asBool());
    const uint64_t id = first.at("id").asUint();

    // Retry of the same logical submit (e.g. the response was lost).
    const json::Value second = conn.roundTrip(submit);
    ASSERT_TRUE(second.at("ok").asBool());
    EXPECT_TRUE(second.at("duplicate").asBool());
    EXPECT_EQ(second.at("id").asUint(), id);

    // A different key is a different job.
    const json::Value third = conn.roundTrip(
        "{\"cmd\":\"submit\",\"spec\":" + countdownSpec(60).to_json() +
        ",\"idem_key\":\"test-key-2\"}");
    ASSERT_TRUE(third.at("ok").asBool());
    EXPECT_NE(third.at("id").asUint(), id);

    // Exactly two jobs exist — the replay created nothing.
    EXPECT_EQ(jobCount(conn.roundTrip("{\"cmd\":\"health\"}")), 2u);
}

TEST(Wire, IdemKeysSurviveJournalRecovery)
{
    TestDir dir("idem_journal");
    service::ServerConfig config = tcpConfig();
    config.journalPath = dir.file("journal.ndjson");
    config.maxQueue = 0;
    config.pool.workers = 1;

    // A journal as a crashed daemon leaves it: a keyed job accepted
    // but never marked done.
    const uint64_t id = 7;
    {
        service::JobJournal journal(config.journalPath);
        journal.accept(id, countdownSpec(77).to_json(), "recover-key");
    }

    // The restarted daemon re-queues the job AND rebuilds the dedupe
    // index, so a client retrying its submit maps onto the recovered
    // job instead of double-executing.
    TcpServer restarted(config);
    RawConn conn(restarted.address());
    const json::Value replay = conn.roundTrip(
        "{\"cmd\":\"submit\",\"spec\":" + countdownSpec(77).to_json() +
        ",\"idem_key\":\"recover-key\"}");
    ASSERT_TRUE(replay.at("ok").asBool());
    EXPECT_TRUE(replay.at("duplicate").asBool());
    EXPECT_EQ(replay.at("id").asUint(), id);

    // The recovered job really runs to a result under its old id.
    const json::Value res = conn.roundTrip(
        "{\"cmd\":\"result\",\"id\":" + std::to_string(id) +
        ",\"wait\":true}");
    ASSERT_TRUE(res.at("ok").asBool());
    EXPECT_EQ(res.at("state").asString(), "done");
    EXPECT_TRUE(res.at("job_ok").asBool());
}

// -------------------------------------------------------------- deadline

TEST(Wire, ExpiredDeadlineShedsQueuedWorkWithBusyResult)
{
    service::ServerConfig config = tcpConfig();
    config.pool.workers = 1;
    TcpServer tcp(config);
    RawConn conn(tcp.address());

    // Occupy the single worker long enough for the deadline to lapse.
    const json::Value blocker = conn.roundTrip(
        "{\"cmd\":\"submit\",\"spec\":" +
        slowSpec(2000, 2000).to_json() + "}");
    ASSERT_TRUE(blocker.at("ok").asBool());

    const json::Value doomed = conn.roundTrip(
        "{\"cmd\":\"submit\",\"spec\":" + countdownSpec(5).to_json() +
        ",\"deadline_ms\":1}");
    ASSERT_TRUE(doomed.at("ok").asBool());
    const uint64_t id = doomed.at("id").asUint();

    const json::Value result = conn.roundTrip(
        "{\"cmd\":\"result\",\"id\":" + std::to_string(id) +
        ",\"wait\":true}");
    ASSERT_TRUE(result.at("ok").asBool());
    EXPECT_EQ(result.at("state").asString(), "done");
    EXPECT_FALSE(result.at("job_ok").asBool());
    // The shed result carries the same error record as every other
    // failure: one job_error object.
    const json::Value &error = result.at("job_error");
    EXPECT_EQ(error.at("code").asString(), enumName(ErrCode::Busy));
    EXPECT_NE(error.at("message").asString().find("shed"),
              std::string::npos);
    EXPECT_TRUE(error.at("cycle").isNull());

    const json::Value health = conn.roundTrip("{\"cmd\":\"health\"}");
    EXPECT_GE(health.at("deadline_shed").asUint(), 1u);
}

TEST(Wire, ClientTimeBudgetsPastTheCapAreBadOperand)
{
    // deadline_ms and wait_ms are added to the steady clock; a value
    // past kMaxClientMs must be refused before it can overflow it.
    TcpServer tcp(tcpConfig());
    RawConn conn(tcp.address());
    const std::string spec = countdownSpec(30).to_json();
    const std::string cap = std::to_string(service::kMaxClientMs);
    const std::string tooBig[] = {
        std::to_string(service::kMaxClientMs + 1),
        "9223372036854775807",  // INT64_MAX
        "18446744073709551615", // UINT64_MAX
    };
    for (const std::string &ms : tooBig) {
        SCOPED_TRACE(ms);
        const json::Value reply = conn.roundTrip(
            "{\"cmd\":\"submit\",\"spec\":" + spec +
            ",\"deadline_ms\":" + ms + "}");
        ASSERT_FALSE(reply.at("ok").asBool());
        EXPECT_EQ(reply.at("error_code").asString(),
                  enumName(ErrCode::BadOperand));
    }
    // None of the refused submits made a job.
    EXPECT_EQ(jobCount(conn.roundTrip("{\"cmd\":\"health\"}")), 0u);

    // The cap itself is a valid (if generous) deadline.
    const json::Value sub = conn.roundTrip(
        "{\"cmd\":\"submit\",\"spec\":" + spec + ",\"deadline_ms\":" +
        cap + "}");
    ASSERT_TRUE(sub.at("ok").asBool());
    const std::string id = std::to_string(sub.at("id").asUint());
    const json::Value done = conn.roundTrip(
        "{\"cmd\":\"result\",\"id\":" + id + ",\"wait_ms\":" + cap +
        "}");
    ASSERT_TRUE(done.at("ok").asBool());
    EXPECT_EQ(done.at("state").asString(), "done");
    EXPECT_TRUE(done.at("job_ok").asBool());

    for (const std::string &ms : tooBig) {
        SCOPED_TRACE(ms);
        const json::Value reply = conn.roundTrip(
            "{\"cmd\":\"result\",\"id\":" + id + ",\"wait_ms\":" + ms +
            "}");
        ASSERT_FALSE(reply.at("ok").asBool());
        EXPECT_EQ(reply.at("error_code").asString(),
                  enumName(ErrCode::BadOperand));
    }
}

// ------------------------------------------------------------- long-poll

TEST(Wire, LongPollReturnsWithinWindowAndOnCompletion)
{
    TcpServer tcp(tcpConfig());
    RawConn conn(tcp.address());

    const json::Value sub = conn.roundTrip(
        "{\"cmd\":\"submit\",\"spec\":" +
        slowSpec(500, 1000).to_json() + "}");
    const uint64_t id = sub.at("id").asUint();

    // A tiny window on a busy job returns promptly with its state
    // instead of blocking forever.
    const auto t0 = std::chrono::steady_clock::now();
    const json::Value pending = conn.roundTrip(
        "{\"cmd\":\"result\",\"id\":" + std::to_string(id) +
        ",\"wait_ms\":1}");
    ASSERT_TRUE(pending.at("ok").asBool());
    const auto waited = std::chrono::duration_cast<
        std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0);
    EXPECT_LT(waited.count(), 2000);

    // A generous window parks until the job completes.
    const json::Value done = conn.roundTrip(
        "{\"cmd\":\"result\",\"id\":" + std::to_string(id) +
        ",\"wait_ms\":30000}");
    ASSERT_TRUE(done.at("ok").asBool());
    EXPECT_EQ(done.at("state").asString(), "done");
    EXPECT_TRUE(done.at("job_ok").asBool());
}

// ---------------------------------------------------------------- health

TEST(Wire, HealthReportsUptimeQueueAndCacheCensus)
{
    TestDir dir("health");
    service::ServerConfig config = tcpConfig();
    config.cacheDir = dir.file("cache");
    TcpServer tcp(config);

    service::SimClient client(tcp.address());
    const machine::SimJobResult r =
        client.result(client.submit(countdownSpec(40)), true);
    ASSERT_TRUE(r.ok);

    const service::SimClient::Health h = client.health();
    EXPECT_GT(h.uptimeMs, 0u);
    EXPECT_FALSE(h.draining);
    EXPECT_GE(h.connections, 1u);
    EXPECT_EQ(h.done, 1u);
    EXPECT_TRUE(h.cacheEnabled);
    EXPECT_EQ(h.cacheMisses, 1u);

    // A repeat of the same pure job is a cache hit the census sees.
    const machine::SimJobResult again =
        client.result(client.submit(countdownSpec(40)), true);
    ASSERT_TRUE(again.fromCache);
    const service::SimClient::Health h2 = client.health();
    EXPECT_EQ(h2.cacheHits, 1u);
    EXPECT_GT(h2.cacheHitRate, 0.0);
}

// ---------------------------------------------------------- chaos proxy

TEST(Wire, ChaosProxyIsDeterministicPerSeed)
{
    // Same seed → same fault census for the same client byte pattern;
    // different seed → (almost surely) different census.
    TcpServer tcp(tcpConfig());

    const auto census = [&](uint64_t seed) {
        service::ChaosPlan plan;
        plan.seed = seed;
        plan.delayPerMille = 100;
        plan.delayMaxMs = 1;
        plan.splitPerMille = 400;
        service::ChaosProxy proxy("127.0.0.1:0", tcp.address(), plan);
        proxy.start();
        const std::string addr =
            "tcp:127.0.0.1:" + std::to_string(proxy.port());
        for (int i = 0; i < 5; ++i) {
            RawConn conn(addr);
            for (int j = 0; j < 10; ++j)
                EXPECT_TRUE(conn.roundTrip("{\"cmd\":\"ping\"}")
                                .at("ok")
                                .asBool());
        }
        const service::ChaosCounters c = proxy.counters();
        proxy.stop();
        return c;
    };

    const service::ChaosCounters a1 = census(42);
    const service::ChaosCounters a2 = census(42);
    EXPECT_EQ(a1.splits, a2.splits);
    EXPECT_EQ(a1.delays, a2.delays);
    EXPECT_GT(a1.faults(), 0u);

    tcp.server.stop();
}

TEST(Wire, ChaosSweepBitIdenticalWithZeroDuplicateExecutions)
{
    // The acceptance scenario (ISSUE 9): a 21-spec sweep over TCP
    // through the chaos proxy — seeded disconnects, garbage,
    // truncation, delays, split writes — completes bit-identical to
    // quiet in-process runs, with zero duplicate executions and no
    // daemon restart.
    TestDir dir("chaos_e2e");
    service::ServerConfig config = tcpConfig();
    config.journalPath = dir.file("journal.ndjson");
    TcpServer tcp(config);

    std::vector<service::JobSpec> specs;
    for (int i = 0; i < 21; ++i)
        specs.push_back(countdownSpec(1000 + 37 * i));

    const machine::SimDriver local(1);
    std::vector<machine::SimJobResult> reference;
    for (const service::JobSpec &spec : specs)
        reference.push_back(local.runAttempt(spec.resolve()));

    service::ChaosPlan plan;
    plan.seed = 1009;
    plan.delayPerMille = 120;
    plan.delayMaxMs = 3;
    plan.splitPerMille = 250;
    plan.dropPerMille = 25;
    plan.truncatePerMille = 20;
    plan.garbagePerMille = 15;
    service::ChaosProxy proxy("127.0.0.1:0", tcp.address(), plan);
    proxy.start();

    std::vector<machine::SimJobResult> results(specs.size());
    std::thread clientThread([&] {
        service::SimClient client(
            "tcp:127.0.0.1:" + std::to_string(proxy.port()), 5000);
        std::vector<uint64_t> ids;
        for (const service::JobSpec &spec : specs)
            ids.push_back(client.submitRetry(spec, 60000));
        for (size_t i = 0; i < ids.size(); ++i)
            results[i] = client.resultWait(ids[i], 60000);
    });
    clientThread.join();

    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        EXPECT_TRUE(results[i].ok);
        EXPECT_TRUE(results[i].stats == reference[i].stats);
    }

    // Chaos actually happened (the schedule is seeded, so this is a
    // deterministic property of the test, not luck).
    const service::ChaosCounters chaos = proxy.counters();
    EXPECT_GT(chaos.faults(), 0u);
    EXPECT_GT(chaos.connections, 1u); // at least one forced redial

    // Zero duplicate executions, via a quiet direct connection: every
    // retry was deduped onto an existing job, so exactly 21 jobs
    // exist, all done.
    RawConn quiet(tcp.address());
    const json::Value health = quiet.roundTrip("{\"cmd\":\"health\"}");
    EXPECT_EQ(jobCount(health), specs.size());
    EXPECT_EQ(health.at("done").asUint(), specs.size());

    // The journal agrees: one accept line per idempotency key, and
    // every accepted job reached done — the on-disk proof there was
    // no double execution.
    proxy.stop();
    tcp.server.stop();
    tcp.server.serve();
    std::ifstream journal(config.journalPath);
    ASSERT_TRUE(journal.good());
    std::string line;
    size_t accepts = 0, dones = 0;
    std::vector<std::string> keys;
    while (std::getline(journal, line)) {
        if (line.empty())
            continue;
        const json::Value entry = json::parse(line);
        const std::string op = entry.at("op").asString();
        if (op == "accept") {
            ++accepts;
            if (entry.has("idem"))
                keys.push_back(entry.at("idem").asString());
        } else if (op == "done") {
            ++dones;
        }
    }
    EXPECT_EQ(accepts, specs.size());
    EXPECT_EQ(dones, specs.size());
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end())
        << "duplicate idempotency key accepted twice";
}

} // anonymous namespace
