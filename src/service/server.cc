#include "service/server.hh"

#include <array>
#include <filesystem>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/log.hh"
#include "service/wire.hh"

namespace mtfpu::service
{

namespace
{

/**
 * The mtfpu-workerd binary: @p configured when set, else a sibling of
 * the running executable — the install layout for both the build tree
 * (build/bench/) and any flat deployment. A daemon without a worker
 * could only fail every job, so a missing binary is a structured Io
 * error at construction.
 */
std::string
workerBinary(const std::string &configured)
{
    std::filesystem::path path = configured;
    std::error_code ec;
    if (path.empty()) {
        const std::filesystem::path self =
            std::filesystem::read_symlink("/proc/self/exe", ec);
        if (!ec)
            path = self.parent_path() / "mtfpu-workerd";
    }
    if (path.empty() || !std::filesystem::exists(path, ec) || ec)
        fatal(ErrCode::Io,
              configured.empty()
                  ? std::string("no mtfpu-workerd next to this binary "
                                "and no worker path given")
                  : "worker binary " + configured + " not found");
    return path.string();
}

/** The structured Busy response (admission control, DESIGN.md §12.3). */
std::string
busyResponse(const std::string &reason, uint64_t retry_after_ms)
{
    json::Writer w;
    w.beginObject();
    w.key("ok").value(false);
    w.key("error").value("daemon busy: " + reason);
    w.key("error_code").value(enumName(ErrCode::Busy));
    w.key("reason").value(reason);
    w.key("retry_after_ms").value(retry_after_ms);
    w.endObject();
    return w.str();
}

std::string
okResponse(const std::function<void(json::Writer &)> &fill)
{
    json::Writer w;
    w.beginObject();
    w.key("ok").value(true);
    fill(w);
    w.endObject();
    return w.str();
}

/** A client time budget (deadline_ms, wait_ms), refused as
 *  bad-operand above kMaxClientMs so it cannot overflow the steady
 *  clock it is added to. */
std::chrono::milliseconds
clientMs(const json::Value &req, const char *field)
{
    const uint64_t ms = req.at(field).asUint();
    if (ms > kMaxClientMs)
        fatal(ErrCode::BadOperand,
              std::string(field) + " " + std::to_string(ms) +
                  " exceeds the one-year cap of " +
                  std::to_string(kMaxClientMs) + " ms");
    return std::chrono::milliseconds(ms);
}

} // anonymous namespace

const char *
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Cancelled: return "cancelled";
    }
    return "queued";
}

SimServer::SimServer(ServerConfig config) : config_(std::move(config))
{
    startTime_ = std::chrono::steady_clock::now();
    if (config_.socketPath.empty() && config_.listenAddr.empty())
        fatal(ErrCode::BadOperand,
              "SimServer needs a Unix socket path or a TCP listen "
              "address (or both)");
    config_.pool.workerPath = workerBinary(config_.pool.workerPath);
    pool_ = std::make_unique<WorkerPool>(config_.pool);

    if (!config_.cacheDir.empty()) {
        // One daemon per cache directory: a second daemon pointed at
        // the same cache fails loudly here instead of interleaving
        // journal/crash artifacts with ours. A lock left by a
        // SIGKILLed daemon is taken over (stale-pid check).
        cacheLock_.emplace(config_.cacheDir, "daemon.lock");
        cache_ = std::make_unique<machine::ResultCache>(config_.cacheDir);
    }

    if (!config_.journalPath.empty())
        recoverJournal();
}

void
SimServer::recoverJournal()
{
    // Replay before opening for append: everything accepted but not
    // done when the last daemon died goes back on the queue under its
    // original id, so clients polling those ids after the restart get
    // real results. Compaction keeps the file from growing forever.
    JobJournal::Recovery recovery =
        JobJournal::recover(config_.journalPath);
    JobJournal::compact(config_.journalPath, recovery.unfinished);
    journal_ = std::make_unique<JobJournal>(config_.journalPath);
    if (recovery.maxId >= nextJobId_)
        nextJobId_ = recovery.maxId + 1;
    size_t requeued = 0;
    for (const JobJournal::Recovered &rec : recovery.unfinished) {
        try {
            const JobSpec spec = JobSpec::parse(rec.specJson);
            Job entry;
            entry.id = rec.id;
            entry.work = Job::Work{spec.resolve(), rec.specJson};
            entry.name = entry.work->job.name;
            entry.idemKey = rec.idemKey;
            entry.cancel = std::make_shared<std::atomic<bool>>(false);
            // Rebuild the dedupe index: a client retrying its submit
            // against the restarted daemon maps onto the recovered
            // job instead of enqueueing a duplicate execution.
            if (!rec.idemKey.empty())
                idemIndex_[rec.idemKey] = rec.id;
            jobs_.emplace(rec.id, std::move(entry));
            queue_.push_back(rec.id);
            ++requeued;
        } catch (const FatalError &err) {
            warn("journal recovery: dropping job " +
                 std::to_string(rec.id) + ": " + err.what());
            journal_->done(rec.id);
        }
    }
    if (requeued > 0)
        inform("service: recovered " + std::to_string(requeued) +
               " in-flight job(s) from " + config_.journalPath);
}

SimServer::~SimServer()
{
    stop();
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    // The accept thread is gone, so nothing adds or reaps connections.
    for (Connection &c : connections_)
        if (c.thread.joinable())
            c.thread.join();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (tcpListenFd_ >= 0)
        ::close(tcpListenFd_);
    if (!config_.socketPath.empty())
        ::unlink(config_.socketPath.c_str());
}

void
SimServer::start()
{
    if (!config_.socketPath.empty())
        listenFd_ = listenUnix(config_.socketPath);
    if (!config_.listenAddr.empty())
        tcpListenFd_ = listenTcp(config_.listenAddr, 16, &tcpPort_);
    for (unsigned i = 0; i < pool_->slots(); ++i)
        workers_.emplace_back([this] { workerLoop(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    std::string where;
    if (listenFd_ >= 0)
        where = config_.socketPath;
    if (tcpListenFd_ >= 0) {
        if (!where.empty())
            where += " + ";
        where += "tcp:" + config_.listenAddr +
                 " (port " + std::to_string(tcpPort_) + ")";
    }
    inform("service: listening on " + where + " with " +
           std::to_string(pool_->slots()) + " isolated worker processes" +
           (cache_ ? ", cache at " + config_.cacheDir : ", no cache") +
           (journal_ ? ", journal at " + config_.journalPath : ""));
}

void
SimServer::serve()
{
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
}

void
SimServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    queueCv_.notify_all();
    resultCv_.notify_all();
    // Kill the worker processes: a stopping daemon abandons running
    // and queued jobs (the journal re-runs them on restart) rather
    // than waiting out arbitrarily long simulations.
    pool_->stop();
    // Unblock accept() and every connection parked in read().
    // shutdown() reaches a thread inside the syscall, which a bare
    // close() would not.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (tcpListenFd_ >= 0)
        ::shutdown(tcpListenFd_, SHUT_RDWR);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
}

void
SimServer::acceptLoop()
{
    // One loop serves both transports: poll whichever listeners are
    // configured, accept from the ready one. stop() shuts the
    // listeners down, which wakes the poll with POLLHUP/POLLIN and
    // makes the accept fail — the stopping_ check then exits.
    for (;;) {
        pollfd fds[2];
        int nfds = 0;
        if (listenFd_ >= 0)
            fds[nfds++] = pollfd{listenFd_, POLLIN, 0};
        if (tcpListenFd_ >= 0)
            fds[nfds++] = pollfd{tcpListenFd_, POLLIN, 0};
        int ready;
        do {
            ready = ::poll(fds, static_cast<nfds_t>(nfds), -1);
        } while (ready < 0 && errno == EINTR);
        if (ready < 0) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_)
                return;
            continue;
        }
        reapConnections();
        for (int i = 0; i < nfds; ++i) {
            if (ready > 0 && fds[i].revents == 0)
                continue;
            const int fd = ::accept(fds[i].fd, nullptr, nullptr);
            std::lock_guard<std::mutex> lock(mutex_);
            if (stopping_) {
                if (fd >= 0)
                    ::close(fd);
                return;
            }
            if (fd < 0)
                continue; // transient accept failure; keep serving
            if (config_.maxConns > 0 &&
                connFds_.size() >= config_.maxConns) {
                // Over the cap: one structured Busy line (best
                // effort, bounded write) and the door closes. No
                // thread is spent on the excess connection.
                LineChannel reject(fd);
                reject.setWriteTimeout(1000);
                reject.writeLine(busyResponse("max-connections", 500));
                continue; // ~LineChannel closes fd
            }
            Connection &conn = connections_.emplace_back();
            conn.thread = std::thread(
                [this, fd, &conn] { handleConnection(fd, conn.done); });
        }
    }
}

void
SimServer::reapConnections()
{
    std::list<Connection> finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = connections_.begin(); it != connections_.end();) {
            const auto next = std::next(it);
            if (it->done)
                finished.splice(finished.end(), connections_, it);
            it = next;
        }
    }
    // A done thread has released mutex_ for the last time; it only
    // has to close its channel and return.
    for (Connection &c : finished)
        c.thread.join();
}

void
SimServer::workerLoop()
{
    for (;;) {
        uint64_t id = 0;
        std::optional<Job::Work> work;
        std::shared_ptr<std::atomic<bool>> cancel;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queueCv_.wait(lock,
                          [this] { return stopping_ || !queue_.empty(); });
            // A stopping daemon abandons its queue: stop() already
            // killed the workers, and with a journal the abandoned
            // jobs are re-run by the next daemon.
            if (stopping_)
                return;
            id = queue_.front();
            queue_.pop_front();
            Job &entry = jobs_.at(id);
            if (entry.state != JobState::Queued)
                continue; // cancelled while queued
            if (entry.deadline &&
                std::chrono::steady_clock::now() > *entry.deadline) {
                // Deadline propagation (DESIGN.md §13.4): the client
                // stopped caring before a worker freed up. Shed the
                // job with a Busy-coded result instead of burning a
                // worker on an answer nobody will read — the
                // backpressure story, applied at dequeue time.
                entry.state = JobState::Done;
                entry.work.reset();
                entry.result.name = entry.name;
                entry.result.fail(SimError(
                    ErrCode::Busy,
                    "deadline expired before execution (shed)"));
                ++deadlineShed_;
                if (journal_)
                    journal_->done(id);
                resultCv_.notify_all();
                continue;
            }
            entry.state = JobState::Running;
            work = std::move(entry.work); // simulate outside the lock
            entry.work.reset();
            cancel = entry.cancel;
        }

        LogJobScope scope("svc-job-" + std::to_string(id));
        PoolOutcome outcome =
            runPooled(work->job, work->specJson, cancel.get());

        {
            std::lock_guard<std::mutex> lock(mutex_);
            Job &entry = jobs_.at(id);
            entry.result = std::move(outcome.result);
            entry.state = outcome.cancelled ? JobState::Cancelled
                                            : JobState::Done;
        }
        // An aborted job (shutdown killed its worker) stays in the
        // journal as accepted-but-unfinished: the restart re-runs it.
        if (journal_ && !outcome.aborted)
            journal_->done(id);
        resultCv_.notify_all();
    }
}

PoolOutcome
SimServer::runPooled(const machine::SimJob &job,
                     const std::string &spec_json,
                     std::atomic<bool> *cancel)
{
    // The result cache stays on the daemon side of the process
    // boundary: a warm hit answers without spawning any work, and one
    // cache serves every worker. Only a pure job is looked up, so an
    // impure one never counts as a miss.
    const bool pure = machine::isPureJob(job);
    if (cache_ && pure) {
        if (std::optional<machine::RunStats> cached = cache_->lookup(job)) {
            PoolOutcome hit;
            hit.result.name = job.name;
            hit.result.stats = *cached;
            hit.result.ok = hit.result.stats.status == machine::RunStatus::Ok;
            hit.result.fromCache = true;
            if (!hit.result.ok)
                hit.result.fail(machine::guardError(hit.result.stats));
            return hit;
        }
    }

    PoolJob poolJob;
    poolJob.name = job.name;
    poolJob.specJson = spec_json;
    poolJob.faultExpected = !job.faultPlan.empty();
    poolJob.cancel = cancel;
    PoolOutcome outcome = pool_->execute(poolJob);
    const machine::SimJobResult &result = outcome.result;

    // Store only outcomes that are a pure function of the job content:
    // a completed run, or a CycleGuard stop (the bound is part of the
    // content identity). A thrown-error result carries default stats
    // (status Ok but !result.ok) and must not masquerade as one;
    // Watchdog depends on host wall-clock speed and is never stored.
    const bool deterministic =
        machine::ResultCache::cacheable(result.stats) &&
        (result.ok ||
         result.stats.status == machine::RunStatus::CycleGuard);
    if (!outcome.cancelled && cache_ && pure && deterministic)
        cache_->store(job, result.stats);
    return outcome;
}

void
SimServer::handleConnection(int fd, bool &done)
{
    LineChannel channel(fd);
    channel.setMaxLineBytes(config_.maxLineBytes);
    if (config_.writeTimeoutMs > 0)
        channel.setWriteTimeout(static_cast<int>(config_.writeTimeoutMs));
    uint64_t clientId = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        connFds_.push_back(fd);
        clientId = nextConnId_++;
    }
    const int idle = config_.idleTimeoutMs > 0
                         ? static_cast<int>(config_.idleTimeoutMs)
                         : -1;
    std::string line;
    for (;;) {
        const LineChannel::ReadStatus status =
            channel.readLineTimed(line, idle);
        if (status == LineChannel::ReadStatus::Timeout) {
            // Idle reaping: a silent peer gives its slot back. The
            // notice is best-effort — the peer may be long gone.
            channel.writeLine(errorResponse(
                "connection idle for " +
                    std::to_string(config_.idleTimeoutMs) +
                    "ms; closing",
                enumName(ErrCode::Io)));
            break;
        }
        if (status == LineChannel::ReadStatus::Overflow) {
            // A line past the bound is hostile or broken either way;
            // the channel buffer is poisoned, so answer and hang up
            // (DESIGN.md §13.3) instead of buffering without limit.
            channel.writeLine(errorResponse(
                "request line exceeds " +
                    std::to_string(config_.maxLineBytes) +
                    " bytes; closing connection",
                enumName(ErrCode::Io)));
            break;
        }
        if (status != LineChannel::ReadStatus::Line)
            break; // EOF or read error
        bool shutdownRequested = false;
        const std::string response =
            handleRequest(line, clientId, shutdownRequested);
        if (!channel.writeLine(response))
            break;
        // A shutdown request stops the server after the reply is on
        // the wire, so the client sees its acknowledgement.
        if (shutdownRequested) {
            stop();
            break;
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    std::erase(connFds_, fd);
    done = true;
}

std::string
SimServer::handleRequest(const std::string &line, uint64_t client_id,
                         bool &shutdown_requested)
{
    try {
        const json::Value req = json::parse(line);
        if (!req.isObject() || !req.has("cmd"))
            return errorResponse("request must be an object with 'cmd'");
        const std::string cmd = req.at("cmd").asString();
        if (cmd == "hello")
            return cmdHello(req);
        if (cmd == "ping")
            return cmdPing();
        if (cmd == "health")
            return cmdHealth();
        if (cmd == "submit")
            return cmdSubmit(req, client_id);
        if (cmd == "status")
            return cmdStatus(req);
        if (cmd == "result")
            return cmdResult(req);
        if (cmd == "cancel")
            return cmdCancel(req);
        if (cmd == "drain")
            return cmdDrain(req);
        if (cmd == "shutdown") {
            shutdown_requested = true;
            return okResponse([](json::Writer &w) {
                w.key("stopping").value(true);
            });
        }
        if (cmd == "cache-stats")
            return cmdCacheStats();
        if (cmd == "cache-clear")
            return cmdCacheClear();
        return errorResponse("unknown command '" + cmd + "'");
    } catch (const SimError &e) {
        return errorResponse(e.what(), enumName(e.code()));
    } catch (const std::exception &e) {
        // A FatalError, or anything else a hostile request provokes
        // (bad_alloc, length_error): it fails this request alone.
        return errorResponse(e.what());
    }
}

std::string
SimServer::cmdHello(const json::Value &req)
{
    // The versioned handshake (DESIGN.md §13.2): an exact check of the
    // one revision this build speaks. A mismatch gets a structured
    // error, never a silent misparse, and the connection stays open.
    if (!req.has("proto"))
        return errorResponse("hello needs a numeric 'proto'",
                             enumName(ErrCode::BadOperand));
    const uint64_t peer = req.at("proto").asUint();
    if (peer != kProtoRevision) {
        json::Writer w;
        w.beginObject();
        w.key("ok").value(false);
        w.key("error").value("unsupported protocol revision " +
                             std::to_string(peer) + " (server speaks " +
                             std::to_string(kProtoRevision) + ")");
        w.key("error_code").value("unsupported-proto");
        w.key("proto").value(kProtoRevision);
        w.endObject();
        return w.str();
    }
    return okResponse([&](json::Writer &w) {
        w.key("proto").value(kProtoRevision);
        w.key("server").value("mtfpu-simserver");
        w.key("version").value(std::to_string(kProtoRevision));
        // The limits this connection may send and expect.
        w.key("max_line_bytes")
            .value(static_cast<uint64_t>(config_.maxLineBytes));
        w.key("idle_timeout_ms").value(config_.idleTimeoutMs);
        w.key("max_queue")
            .value(static_cast<uint64_t>(config_.maxQueue));
        w.key("max_inflight_per_client")
            .value(static_cast<uint64_t>(config_.maxInflightPerClient));
    });
}

std::string
SimServer::cmdPing()
{
    return okResponse([](json::Writer &w) {
        w.key("version").value(std::to_string(kProtoRevision));
    });
}

std::string
SimServer::cmdHealth()
{
    // Readiness census for load balancers and sweep drivers
    // (DESIGN.md §13.5): one cheap round trip answers "should I send
    // this daemon more work" without touching the job queue. Uptime
    // counts started milliseconds (rounded up): a daemon answering
    // within its first millisecond has been up, so it reports 1, not
    // the 0 a client sees when the field is absent.
    using namespace std::chrono;
    const uint64_t uptime = static_cast<uint64_t>(
        ceil<milliseconds>(steady_clock::now() - startTime_).count());
    std::array<uint64_t, 4> jobsIn{}; // jobs per JobState
    uint64_t shed = 0;
    size_t conns = 0;
    bool draining = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[id, entry] : jobs_)
            ++jobsIn[static_cast<size_t>(entry.state)];
        shed = deadlineShed_;
        conns = connFds_.size();
        draining = draining_;
    }
    return okResponse([&](json::Writer &w) {
        w.key("version").value(std::to_string(kProtoRevision));
        w.key("uptime_ms").value(uptime);
        w.key("draining").value(draining);
        w.key("connections").value(static_cast<uint64_t>(conns));
        for (size_t state = 0; state < jobsIn.size(); ++state)
            w.key(jobStateName(static_cast<JobState>(state)))
                .value(jobsIn[state]);
        w.key("deadline_shed").value(shed);
        w.key("pool_slots").value(static_cast<uint64_t>(pool_->slots()));
        w.key("pool_busy").value(static_cast<uint64_t>(pool_->busySlots()));
        w.key("worker_crashes").value(pool_->crashes());
        w.key("worker_respawns").value(pool_->respawns());
        w.key("cache_enabled").value(cache_ != nullptr);
        if (cache_) {
            const uint64_t hits = cache_->hits();
            const uint64_t misses = cache_->misses();
            w.key("cache_hits").value(hits);
            w.key("cache_misses").value(misses);
            w.key("cache_hit_rate")
                .value(hits + misses > 0
                           ? static_cast<double>(hits) /
                                 static_cast<double>(hits + misses)
                           : 0.0);
        }
    });
}

std::string
SimServer::cmdSubmit(const json::Value &req, uint64_t client_id)
{
    if (!req.has("spec"))
        return errorResponse("submit needs a 'spec' object");
    const JobSpec spec = JobSpec::from_json(req.at("spec"));
    Job entry;
    // resolve() throws on bad programs: caught by handleRequest.
    entry.work = Job::Work{spec.resolve(), spec.to_json()};
    entry.name = entry.work->job.name;
    entry.clientId = client_id;
    entry.cancel = std::make_shared<std::atomic<bool>>(false);
    if (req.has("idem_key"))
        entry.idemKey = req.at("idem_key").asString();
    if (req.has("deadline_ms")) {
        // The client's delivery budget, made absolute at admission:
        // queue time counts against it, which is the whole point.
        entry.deadline = std::chrono::steady_clock::now() +
                         clientMs(req, "deadline_ms");
    }
    uint64_t id = 0;
    bool duplicate = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            return errorResponse("server is shutting down");

        // Idempotent replay (DESIGN.md §13.4) is checked before
        // admission control on purpose: a retry of a job the daemon
        // already accepted must map back to it even when the queue is
        // full — rejecting the retry as Busy would be exactly the
        // double-submission window idempotency keys exist to close.
        if (!entry.idemKey.empty()) {
            const auto it = idemIndex_.find(entry.idemKey);
            if (it != idemIndex_.end()) {
                id = it->second;
                duplicate = true;
            }
        }
        if (!duplicate) {
            // Admission control (DESIGN.md §12.3). The retry-after
            // hint scales with the backlog so a storm of rejected
            // clients does not return in one synchronized wave.
            if (draining_)
                return busyResponse("draining", 1000);
            if (config_.maxQueue > 0 &&
                queue_.size() >= config_.maxQueue) {
                return busyResponse("queue-full",
                                    100 + 25 * (queue_.size() -
                                                config_.maxQueue + 1));
            }
            if (config_.maxInflightPerClient > 0 && client_id != 0) {
                size_t inflight = 0;
                for (const auto &[jid, j] : jobs_) {
                    if (j.clientId == client_id &&
                        (j.state == JobState::Queued ||
                         j.state == JobState::Running))
                        ++inflight;
                }
                if (inflight >= config_.maxInflightPerClient)
                    return busyResponse("client-cap", 200);
            }

            id = nextJobId_++;
            entry.id = id;
            if (!entry.idemKey.empty())
                idemIndex_[entry.idemKey] = id;
            if (journal_)
                journal_->accept(id, entry.work->specJson, entry.idemKey);
            jobs_.emplace(id, std::move(entry));
            queue_.push_back(id);
        }
    }
    if (!duplicate)
        queueCv_.notify_one();
    return okResponse([&](json::Writer &w) {
        w.key("id").value(id);
        w.key("duplicate").value(duplicate);
    });
}

std::string
SimServer::cmdStatus(const json::Value &req)
{
    // One job's state; the daemon-wide census is health's.
    if (!req.has("id"))
        return errorResponse("status needs an 'id'",
                             enumName(ErrCode::BadOperand));
    const uint64_t id = req.at("id").asUint();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return errorResponse("no job " + std::to_string(id));
    const Job &entry = it->second;
    return okResponse([&](json::Writer &w) {
        w.key("id").value(id);
        w.key("state").value(jobStateName(entry.state));
        w.key("name").value(entry.name);
    });
}

std::string
SimServer::cmdResult(const json::Value &req)
{
    if (!req.has("id"))
        return errorResponse("result needs an 'id'");
    const uint64_t id = req.at("id").asUint();
    const bool wait = !req.has("wait") || req.at("wait").asBool();
    const std::optional<std::chrono::milliseconds> window =
        req.has("wait_ms") ? std::optional(clientMs(req, "wait_ms"))
                           : std::nullopt;

    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return errorResponse("no job " + std::to_string(id));
    const auto finished = [&] {
        return stopping_ || it->second.state == JobState::Done ||
               it->second.state == JobState::Cancelled;
    };
    if (window) {
        // Bounded long-poll (DESIGN.md §13.5): block server-side up
        // to the window, then answer with whatever state the job is
        // in — the client repeats as its own budget allows, without
        // ever parking a connection thread forever; a shutdown wakes
        // every waiter.
        resultCv_.wait_for(lock, *window, finished);
    } else if (wait) {
        resultCv_.wait(lock, finished);
    }
    const Job &entry = it->second;
    if (entry.state != JobState::Done) {
        return okResponse([&](json::Writer &w) {
            w.key("id").value(id);
            w.key("state").value(jobStateName(entry.state));
        });
    }
    return okResponse([&](json::Writer &w) {
        w.key("id").value(id);
        w.key("state").value(jobStateName(entry.state));
        writeJobResult(w, entry.result);
    });
}

std::string
SimServer::cmdCancel(const json::Value &req)
{
    if (!req.has("id"))
        return errorResponse("cancel needs an 'id'");
    const uint64_t id = req.at("id").asUint();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return errorResponse("no job " + std::to_string(id));
    bool cancelled = false;
    if (it->second.state == JobState::Queued) {
        it->second.state = JobState::Cancelled;
        it->second.work.reset();
        cancelled = true;
        // Never ran, never will: retire it from the journal now, or a
        // restart would resurrect a job its owner explicitly killed.
        if (journal_)
            journal_->done(id);
    } else if (it->second.state == JobState::Running &&
               it->second.cancel) {
        // Accepted: the pool's supervision loop sees the flag within
        // one poll tick and SIGKILLs the worker. The state flips to
        // Cancelled when the pool hands the outcome back — a cancel
        // is a kill, not a wish, but it is asynchronous.
        it->second.cancel->store(true, std::memory_order_relaxed);
        cancelled = true;
    }
    resultCv_.notify_all();
    return okResponse([&](json::Writer &w) {
        w.key("id").value(id);
        w.key("cancelled").value(cancelled);
        w.key("state").value(jobStateName(it->second.state));
    });
}

std::string
SimServer::cmdDrain(const json::Value &req)
{
    const bool on = !req.has("on") || req.at("on").asBool();
    bool queued;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        draining_ = on;
        queued = !queue_.empty();
    }
    inform(on ? "service: drain mode on — rejecting new submissions"
              : "service: drain mode off");
    return okResponse([&](json::Writer &w) {
        w.key("draining").value(on);
        w.key("queue_empty").value(!queued);
    });
}

std::string
SimServer::cmdCacheStats()
{
    if (!cache_)
        return okResponse([](json::Writer &w) {
            w.key("enabled").value(false);
        });
    const machine::ResultCache::DiskStats disk = cache_->scan();
    return okResponse([&](json::Writer &w) {
        w.key("enabled").value(true);
        w.key("dir").value(cache_->dir());
        w.key("hits").value(cache_->hits());
        w.key("misses").value(cache_->misses());
        w.key("stores").value(cache_->stores());
        w.key("disk_entries").value(disk.entries);
        w.key("disk_bytes").value(disk.bytes);
    });
}

std::string
SimServer::cmdCacheClear()
{
    if (!cache_)
        return okResponse([](json::Writer &w) {
            w.key("enabled").value(false);
            w.key("removed").value(uint64_t{0});
        });
    const uint64_t removed = cache_->clear();
    return okResponse([&](json::Writer &w) {
        w.key("enabled").value(true);
        w.key("removed").value(removed);
    });
}

} // namespace mtfpu::service
