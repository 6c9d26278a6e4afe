#include "service/supervisor.hh"

#include <csignal>
#include <map>
#include <sys/wait.h>

#include "common/file_io.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "service/job_spec.hh"

namespace mtfpu::service
{

std::string
signalName(int sig)
{
    switch (sig) {
      case SIGHUP: return "SIGHUP";
      case SIGINT: return "SIGINT";
      case SIGQUIT: return "SIGQUIT";
      case SIGILL: return "SIGILL";
      case SIGABRT: return "SIGABRT";
      case SIGBUS: return "SIGBUS";
      case SIGFPE: return "SIGFPE";
      case SIGKILL: return "SIGKILL";
      case SIGSEGV: return "SIGSEGV";
      case SIGPIPE: return "SIGPIPE";
      case SIGTERM: return "SIGTERM";
      case SIGXCPU: return "SIGXCPU";
      case SIGXFSZ: return "SIGXFSZ";
    }
    return "SIG" + std::to_string(sig);
}

CrashInfo
classifyExit(int wstatus)
{
    CrashInfo info;
    if (WIFSIGNALED(wstatus)) {
        const int sig = WTERMSIG(wstatus);
        info.signal = signalName(sig);
        info.summary = "worker killed by signal " + std::to_string(sig) +
                       " (" + info.signal + ")";
        if (sig == SIGXCPU) {
            info.summary += " — CPU rlimit exhausted";
        } else if (sig == SIGKILL) {
            info.maybeOom = true;
            info.summary += " — possible out-of-memory kill";
        }
    } else if (WIFEXITED(wstatus)) {
        info.exitCode = WEXITSTATUS(wstatus);
        info.summary =
            "worker exited with status " + std::to_string(info.exitCode);
    } else {
        info.summary = "worker vanished with wait status " +
                       std::to_string(wstatus);
    }
    return info;
}

unsigned
RespawnBackoff::recordCrash()
{
    ++streak_;
    // base * 2^(streak-1), saturating at the cap. The shift is bounded
    // so a very long streak cannot overflow into a zero delay.
    const unsigned shift = streak_ > 16 ? 16 : streak_ - 1;
    const uint64_t delay = static_cast<uint64_t>(baseMs_) << shift;
    return delay > maxMs_ ? maxMs_ : static_cast<unsigned>(delay);
}

namespace
{

/** The accept event's record. */
std::string
acceptRecord(uint64_t id, const std::string &spec_json,
             const std::string &idem_key)
{
    json::Writer w;
    w.beginObject();
    w.key("op").value("accept");
    w.key("id").value(id);
    w.key("spec").raw(spec_json);
    if (!idem_key.empty())
        w.key("idem").value(idem_key);
    w.endObject();
    return w.str();
}

} // anonymous namespace

JobJournal::JobJournal(std::string path) : out_(std::move(path)) {}

void
JobJournal::accept(uint64_t id, const std::string &spec_json,
                   const std::string &idem_key)
{
    out_.append(acceptRecord(id, spec_json, idem_key));
}

void
JobJournal::done(uint64_t id)
{
    json::Writer w;
    w.beginObject();
    w.key("op").value("done");
    w.key("id").value(id);
    w.endObject();
    out_.append(w.str());
}

JobJournal::Recovery
JobJournal::recover(const std::string &path)
{
    // Replay in file order into an id-keyed map: accept inserts, done
    // erases. std::map keeps the survivors in ascending id order.
    Recovery recovery;
    std::map<uint64_t, Recovered> open;
    journal::replay(path, [&](const json::Value &v) {
        const std::string op = v.at("op").asString();
        const uint64_t id = v.at("id").asUint();
        if (id > recovery.maxId)
            recovery.maxId = id;
        if (op == "accept") {
            // The reader has no serializer; round-trip the spec
            // through its typed form to get canonical JSON back (and
            // reject a corrupt spec here, not at re-submission).
            Recovered rec;
            rec.id = id;
            rec.specJson = JobSpec::from_json(v.at("spec")).to_json();
            if (v.has("idem"))
                rec.idemKey = v.at("idem").asString();
            open[id] = std::move(rec);
        } else if (op == "done") {
            open.erase(id);
        }
    });
    for (auto &[id, rec] : open)
        recovery.unfinished.push_back(std::move(rec));
    return recovery;
}

void
JobJournal::compact(const std::string &path,
                    const std::vector<Recovered> &unfinished)
{
    // Replaced whole, so a crash mid-compaction leaves the old
    // journal intact.
    std::string records;
    for (const Recovered &job : unfinished)
        records += acceptRecord(job.id, job.specJson, job.idemKey) + '\n';
    try {
        writeFileAtomic(path, records);
    } catch (const SimError &err) {
        warn("job journal: compaction of " + path + " failed: " +
             err.what());
    }
}

void
writeWorkerCrashReport(const std::string &dir, const std::string &job_name,
                       const std::string &spec_json, const CrashInfo &crash,
                       unsigned attempts, const std::string &error_json)
{
    if (dir.empty())
        return;
    try {
        std::string base;
        base.reserve(job_name.size());
        for (char c : job_name) {
            const bool keep = (c >= 'a' && c <= 'z') ||
                              (c >= 'A' && c <= 'Z') ||
                              (c >= '0' && c <= '9') || c == '-' ||
                              c == '_' || c == '.';
            base.push_back(keep ? c : '_');
        }
        if (base.empty())
            base = "job";
        const std::string path = dir + "/" + base + ".worker-crash.json";
        json::Writer w;
        w.beginObject();
        w.key("job").value(job_name);
        w.key("kind").value("worker-crash");
        w.key("error_code").value(errCodeName(crash.code));
        w.key("summary").value(crash.summary);
        if (!crash.signal.empty())
            w.key("signal").value(crash.signal);
        if (crash.exitCode >= 0)
            w.key("exit_code").value(static_cast<uint64_t>(crash.exitCode));
        w.key("possible_oom").value(crash.maybeOom);
        w.key("attempts").value(static_cast<uint64_t>(attempts));
        if (!error_json.empty())
            w.key("error").raw(error_json);
        if (!spec_json.empty())
            w.key("spec").raw(spec_json);
        w.endObject();
        writeFileAtomic(path, w.str() + "\n");
        inform("worker crash report written to " + path);
    } catch (const std::exception &err) {
        warn(std::string("worker crash report failed: ") + err.what());
    }
}

} // namespace mtfpu::service
